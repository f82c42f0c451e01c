package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/aolog"
	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/blsapp"
	"repro/internal/domain"
	"repro/internal/gossip"
	"repro/internal/serve"
	"repro/internal/transport"
)

// workload is one named traffic mix. setup boots its daemons and returns
// once the first op has been verified; op runs one verified op; finish
// runs the end-of-run checks; close drops the client's connections.
type workload interface {
	clients() int
	setup(e *env) (setupSeconds float64, err error)
	op(w int, i int64, t *opTrace) error
	finish() error
	close()
}

// trials is how many times a run sets its workload up from scratch and
// drives it; setup_s is the median set-up time. sign's set-up is a
// sub-second boot, so it takes more samples. ingest grows its log as it
// runs, so its trials are kept short: at 140 to 210 ops/s a 3 s trial of
// a 24 s run appends 1,300 to 1,900 leaves to the 8,192 of the prefill.
func trials(workload string) int {
	switch workload {
	case "sign":
		return 7
	case "ingest":
		return 8
	}
	return 3
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "read":
		return &readWL{cfg: cfg}, nil
	case "sign":
		return &signWL{cfg: cfg}, nil
	case "ingest":
		return &ingestWL{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want read, sign or ingest)", cfg.workload)
}

// ---- read: a client checking log entries against the monitor ----

type readWL struct {
	cfg   *config
	e     *env
	n     int
	head  aolog.BLSSignedHead
	conns [2]*transport.Client
	rngs  [2]*rand.Rand
}

func (r *readWL) clients() int { return 2 }

func (r *readWL) setup(e *env) (float64, error) {
	r.e, r.n = e, r.cfg.readLog
	t0 := time.Now()
	dep, err := e.bootDomains()
	if err != nil {
		return 0, err
	}
	// Default monitord flags: in memory, caching tier on.
	_, addr, c, err := e.startRPC("monitord", "-params", dep.path)
	if err != nil {
		return 0, err
	}
	r.conns[0] = c
	pk, err := monitorKey(c)
	if err != nil {
		return 0, err
	}
	envs, err := fetchStatuses(dep.params, r.cfg.seed, r.n)
	if err != nil {
		return 0, err
	}
	if err := prefill(c, envs); err != nil {
		return 0, err
	}
	// The tier signs the head for the new size asynchronously; pin it once
	// it is published, and verify it once.
	deadline := time.Now().Add(30 * time.Second)
	for r.head.Size != uint64(r.n) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("monitor never published a head at size %d", r.n)
		}
		if err := c.Call("headbls", struct{}{}, &r.head); err != nil {
			return 0, fmt.Errorf("headbls: %w", err)
		}
	}
	if !aolog.VerifyHeadBLS(pk, &r.head) {
		return 0, errors.New("monitor head signature does not verify")
	}
	dialSlot.Store(1)
	r.conns[1], err = transport.Dial(addr)
	dialSlot.Store(0)
	if err != nil {
		return 0, err
	}
	for w := range r.rngs {
		r.rngs[w] = rand.New(rand.NewSource(r.cfg.seed*10 + int64(w)))
	}
	// Warm the proof cache with every index, verifying each proof.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := w; idx < r.n; idx += 2 {
				if err := r.check(w, idx, nil); err != nil {
					errs[w] = fmt.Errorf("warming index %d: %w", idx, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	if err := r.op(0, -1, nil); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func (r *readWL) op(w int, _ int64, t *opTrace) error {
	return r.check(w, r.rngs[w].Intn(r.n), t)
}

// check fetches the inclusion proof of idx at the pinned size and
// verifies it against the pinned, verified head.
func (r *readWL) check(w, idx int, t *opTrace) error {
	var resp serve.ProofResponse
	t.begin("transport.call")
	err := r.conns[w].Call("proof", serve.ProofRequest{Index: idx, Size: r.n}, &resp)
	t.end()
	if err != nil {
		return fmt.Errorf("proof %d: %w", idx, err)
	}
	r.e.tamper("proof", &resp)
	t.begin("aolog.verify")
	defer t.end()
	p := resp.Proof
	if p == nil || resp.Index != idx || resp.Size != r.n || p.GlobalIndex != idx || p.TreeSize != int(r.head.Size) {
		return fmt.Errorf("proof %d does not answer the request", idx)
	}
	if !aolog.VerifyShardInclusion(resp.Payload, p, r.head.Head) {
		return fmt.Errorf("proof %d does not verify against the pinned head", idx)
	}
	return nil
}

func (r *readWL) finish() error { return nil }

func (r *readWL) close() {
	for _, c := range r.conns {
		if c != nil {
			c.Close()
		}
	}
}

// ---- sign: the distributed-trust application ----

type signWL struct {
	cfg *config
	e   *env
	dep *deployment
	inv *invoker
}

func (s *signWL) clients() int { return 1 }

func (s *signWL) setup(e *env) (float64, error) {
	s.e = e
	t0 := time.Now()
	dep, err := e.bootDomains()
	if err != nil {
		return 0, err
	}
	s.dep, s.inv = dep, &invoker{params: dep.params}
	if err := s.sign([]byte("perfbench set-up"), nil); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func (s *signWL) op(_ int, i int64, t *opTrace) error {
	return s.sign([]byte(fmt.Sprintf("perfbench sign seed %d op %d", s.cfg.seed, i)), t)
}

// sign threshold-signs msg over RPC and verifies the group signature.
func (s *signWL) sign(msg []byte, t *opTrace) error {
	s.inv.t = t
	t.begin("blsapp.sign")
	sig, err := blsapp.ThresholdSign(s.inv, s.dep.tk, msg)
	t.end()
	if err != nil {
		return err
	}
	s.e.tamper("signature", sig)
	t.begin("bls.verify")
	ok := bls.Verify(&s.dep.tk.GroupKey, msg, sig)
	t.end()
	if !ok {
		return errors.New("group signature does not verify")
	}
	return nil
}

func (s *signWL) finish() error { return nil }

func (s *signWL) close() {
	if s.inv != nil {
		s.inv.close()
	}
}

// invoker is a blsapp.Invoker over one RPC connection per domain that
// times each invoke.
type invoker struct {
	params audit.Params
	conns  []*transport.Client
	t      *opTrace
}

func (v *invoker) NumDomains() int { return len(v.params.Domains) }

func (v *invoker) Invoke(i int, request []byte) ([]byte, error) {
	for len(v.conns) < len(v.params.Domains) {
		v.conns = append(v.conns, nil)
	}
	if v.conns[i] == nil {
		c, err := transport.Dial(v.params.Domains[i].Addr)
		if err != nil {
			return nil, err
		}
		v.conns[i] = c
	}
	v.t.begin("blsapp.invoke")
	defer v.t.end()
	var resp domain.InvokeResponse
	if err := v.conns[i].Call("invoke", domain.InvokeRequest{Request: request}, &resp); err != nil {
		return nil, err
	}
	return resp.Response, nil
}

func (v *invoker) close() {
	for _, c := range v.conns {
		if c != nil {
			c.Close()
		}
	}
}

// ---- ingest: the paper's audit-then-log round ----

type ingestWL struct {
	cfg    *config
	e      *env
	dep    *deployment
	ac     *audit.Client
	mon    *daemon
	mc, wc *transport.Client
	monPK  *bls.PublicKey
	witPK  *bls.PublicKey
}

func (g *ingestWL) clients() int { return 1 }

func (g *ingestWL) setup(e *env) (float64, error) {
	g.e = e
	t0 := time.Now()
	dep, err := e.bootDomains()
	if err != nil {
		return 0, err
	}
	g.dep = dep
	var maddr string
	g.mon, maddr, g.mc, err = e.startRPC("monitord", "-params", dep.path, "-data", filepath.Join(e.dir, "monitor-data"))
	if err != nil {
		return 0, err
	}
	if g.monPK, err = monitorKey(g.mc); err != nil {
		return 0, err
	}
	envs, err := fetchStatuses(dep.params, g.cfg.seed, g.cfg.ingestLog)
	if err != nil {
		return 0, err
	}
	if err := prefill(g.mc, envs); err != nil {
		return 0, err
	}
	if _, _, g.wc, err = e.startRPC("auditord", "-name", "w1", "-sources", "monitor="+maddr,
		"-data", filepath.Join(e.dir, "witness-data"), "-subscribe"); err != nil {
		return 0, err
	}
	var info gossip.WitnessInfo
	if err := g.wc.Call(gossip.KindWitnessInfo, struct{}{}, &info); err != nil {
		return 0, fmt.Errorf("witness info: %w", err)
	}
	g.witPK = new(bls.PublicKey)
	if err := g.witPK.SetBytes(info.PublicKey); err != nil {
		return 0, fmt.Errorf("witness key: %w", err)
	}
	if err := g.cosigned(uint64(g.cfg.ingestLog)); err != nil {
		return 0, err
	}
	g.ac = audit.NewClient(dep.params)
	if err := g.op(0, -1, nil); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func (g *ingestWL) op(_ int, _ int64, t *opTrace) error {
	t.begin("audit.audit")
	rep, err := g.ac.Audit()
	t.end()
	if err != nil {
		return err
	}
	if !rep.Consistent || len(rep.Findings) > 0 || len(rep.Domains) != len(g.dep.params.Domains) {
		return fmt.Errorf("audit not consistent: %v", rep.Findings)
	}
	envs := make([]*audit.AttestedStatusEnvelope, len(rep.Domains))
	for i := range rep.Domains {
		envs[i] = &rep.Domains[i].Status
	}
	g.e.tamper("status", envs)
	var out []submitOutcome
	t.begin("transport.call")
	err = g.mc.Call("submitbatch", submitRequest{Envelopes: envs}, &out)
	t.end()
	if err != nil {
		return fmt.Errorf("submitbatch: %w", err)
	}
	return checkOutcomes(out, len(envs))
}

// cosigned waits until the witness's cosigned frontier for the monitor
// reaches size, then checks the cosigned head with
// gossip.VerifyCosignedHead against the pinned monitor and witness keys.
func (g *ingestWL) cosigned(size uint64) error {
	monKey := g.monPK.Bytes()
	var ch *gossip.CosignedHead
	err := g.mon.waitFor(fmt.Sprintf("witness frontier at size %d", size), 30*time.Second, func() bool {
		var resp gossip.HeadsResponse
		if err := g.wc.Call(gossip.KindPollinate, gossip.HeadsMessage{From: "perfbench"}, &resp); err != nil {
			return false
		}
		for _, h := range resp.Heads {
			if bytes.Equal(h.SourcePK, monKey[:]) && h.Head.Size >= size {
				ch = &gossip.CosignedHead{Source: h.Source, SourcePK: h.SourcePK, Head: h.Head, Cosigs: h.Cosigs}
				return true
			}
		}
		return false
	})
	if err != nil {
		return err
	}
	if ch.Head.Size != size {
		return fmt.Errorf("witness frontier at size %d, log has %d", ch.Head.Size, size)
	}
	if err := gossip.VerifyCosignedHead(g.monPK, []*bls.PublicKey{g.witPK}, 1, ch); err != nil {
		return fmt.Errorf("witness cosigned head: %w", err)
	}
	return nil
}

func (g *ingestWL) close() {
	if g.ac != nil {
		g.ac.Close()
	}
	for _, c := range []*transport.Client{g.mc, g.wc} {
		if c != nil {
			c.Close()
		}
	}
}

func (g *ingestWL) finish() error {
	var info monitorInfo
	if err := g.mc.Call("info", struct{}{}, &info); err != nil {
		return fmt.Errorf("monitor info: %w", err)
	}
	return g.cosigned(info.Size)
}
