package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/deployfile"
	"repro/internal/domain"
	"repro/internal/transport"
)

// env is what a workload's set-up builds: the daemons it spawned (in
// spawn order) and the run directory they write into.
type env struct {
	cfg     *config
	dir     string
	daemons []*daemon
	timed   bool // set once set-up is over
}

// start spawns a daemon and waits until ready accepts it. With listen
// set, the daemon's -listen flag gets a reserved port, which ready is
// given. Another process can take a reserved port before the daemon binds
// it; the daemon then exits at once, and start retries on fresh ports.
func (e *env) start(name string, listen bool, ready func(d *daemon, addr string) error, args ...string) (*daemon, error) {
	for attempt := 1; ; attempt++ {
		addrs, err := freeAddrs(2)
		if err != nil {
			return nil, err
		}
		a := args
		if listen {
			a = append(args[:len(args):len(args)], "-listen", addrs[0])
		}
		d, err := startDaemon(e.dir, e.cfg.binDir, name, addrs[1], a...)
		if err != nil {
			return nil, err
		}
		if err = ready(d, addrs[0]); err == nil {
			e.daemons = append(e.daemons, d)
			return d, nil
		}
		d.stop()
		if attempt == 3 || !d.lostPort() {
			return nil, err
		}
	}
}

// stopAll stops every daemon, last spawned first.
func (e *env) stopAll() {
	for i := len(e.daemons) - 1; i >= 0; i-- {
		e.daemons[i].stop()
	}
	e.daemons = nil
}

// tamper lets tests corrupt a response between receipt and verification
// during the timed phase.
func (e *env) tamper(kind string, v any) {
	if e.timed && e.cfg.tamper != nil {
		e.cfg.tamper(kind, v)
	}
}

// deployment is a booted 3-domain trustdomaind.
type deployment struct {
	params audit.Params
	tk     *bls.ThresholdKey
	path   string
}

// bootDomains starts trustdomaind with three domains and threshold two,
// and waits for its public parameters.
func (e *env) bootDomains() (*deployment, error) {
	path := filepath.Join(e.dir, "deployment.json")
	// The refresh key is written after the parameters file.
	paramsWritten := func(d *daemon, _ string) error {
		return d.waitFor("parameters file", 30*time.Second, func() bool {
			_, err := os.Stat(path + ".refresh-key")
			return err == nil
		})
	}
	if _, err := e.start("trustdomaind", false, paramsWritten, "-demo", "-n", "3", "-t", "2", "-params", path); err != nil {
		return nil, err
	}
	file, err := deployfile.Read(path)
	if err != nil {
		return nil, err
	}
	params, err := file.Params()
	if err != nil {
		return nil, err
	}
	tk, err := file.ThresholdKey()
	if err != nil {
		return nil, err
	}
	return &deployment{params: params, tk: tk, path: path}, nil
}

// seededNonce draws a 32-byte audit nonce from rng.
func seededNonce(rng *rand.Rand) []byte {
	nonce := make([]byte, 32)
	for i := 0; i < len(nonce); i += 8 {
		binary.LittleEndian.PutUint64(nonce[i:], rng.Uint64())
	}
	return nonce
}

// fetchStatuses fetches n attested statuses, round-robin over the
// domains, each bound to a nonce drawn from the seed. Two workers, each
// with its own connection to every domain, keep two requests in flight.
func fetchStatuses(params audit.Params, seed int64, n int) ([]*audit.AttestedStatusEnvelope, error) {
	nd := len(params.Domains)
	out := make([]*audit.AttestedStatusEnvelope, n)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conns := make([]*transport.Client, nd)
			defer func() {
				for _, c := range conns {
					if c != nil {
						c.Close()
					}
				}
			}()
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			for i := w; i < n; i += 2 {
				k := i % nd
				if conns[k] == nil {
					c, err := transport.Dial(params.Domains[k].Addr)
					if err != nil {
						errs[w] = err
						return
					}
					conns[k] = c
				}
				nonce := seededNonce(rng)
				var resp domain.StatusResponse
				if err := conns[k].Call("status", domain.StatusRequest{Nonce: nonce}, &resp); err != nil {
					errs[w] = fmt.Errorf("status from %s: %w", params.Domains[k].Name, err)
					return
				}
				out[i] = &audit.AttestedStatusEnvelope{Nonce: nonce, Resp: resp}
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// submitOutcome is one monitord submitbatch result.
type submitOutcome struct {
	LogIndex int                `json:"log_index"`
	Alert    *audit.Misbehavior `json:"alert,omitempty"`
	Error    string             `json:"error,omitempty"`
}

type submitRequest struct {
	Envelopes []*audit.AttestedStatusEnvelope `json:"envelopes"`
}

// checkOutcomes requires one logged, alert-free outcome per envelope.
func checkOutcomes(out []submitOutcome, want int) error {
	if len(out) != want {
		return fmt.Errorf("submitbatch answered %d of %d envelopes", len(out), want)
	}
	for i, o := range out {
		switch {
		case o.Error != "":
			return fmt.Errorf("submitbatch envelope %d: %s", i, o.Error)
		case o.Alert != nil:
			return fmt.Errorf("submitbatch envelope %d raised a %s alert", i, o.Alert.Kind)
		case o.LogIndex < 0:
			return fmt.Errorf("submitbatch envelope %d got no log index", i)
		}
	}
	return nil
}

// prefill submits envs to the monitor in batches.
func prefill(c *transport.Client, envs []*audit.AttestedStatusEnvelope) error {
	const batch = 256
	for i := 0; i < len(envs); i += batch {
		j := min(i+batch, len(envs))
		var out []submitOutcome
		if err := c.Call("submitbatch", submitRequest{Envelopes: envs[i:j]}, &out); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if err := checkOutcomes(out, j-i); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// monitorInfo is monitord's identity answer.
type monitorInfo struct {
	BLSKey []byte `json:"bls_key"`
	Size   uint64 `json:"size"`
}

func monitorKey(c *transport.Client) (*bls.PublicKey, error) {
	var info monitorInfo
	if err := c.Call("info", struct{}{}, &info); err != nil {
		return nil, fmt.Errorf("monitor info: %w", err)
	}
	pk := new(bls.PublicKey)
	if err := pk.SetBytes(info.BLSKey); err != nil {
		return nil, fmt.Errorf("monitor BLS key: %w", err)
	}
	return pk, nil
}

// startRPC spawns a daemon serving RPCs on a reserved port and dials it.
func (e *env) startRPC(name string, args ...string) (*daemon, string, *transport.Client, error) {
	var addr string
	var c *transport.Client
	d, err := e.start(name, true, func(d *daemon, a string) error {
		addr = a
		var err error
		c, err = d.dialWhenUp(a)
		return err
	}, args...)
	return d, addr, c, err
}
