package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// document is the one schema every run writes: what ran, where, and what
// it measured.
type document struct {
	Schema    string         `json:"schema"`
	Commit    string         `json:"commit"`
	Machine   machineInfo    `json:"machine"`
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Traced    bool           `json:"traced"`
	Seconds   float64        `json:"seconds"`
	Inputs    map[string]int `json:"inputs"`
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Checks    []string       `json:"checks,omitempty"`
	EndToEnd  []e2eMetric    `json:"end_to_end,omitempty"`
	Windows   []float64      `json:"ops_per_s_windows,omitempty"`
	Layers    []layerRow     `json:"layers,omitempty"`
	Budget    []budgetRow    `json:"budget,omitempty"`
}

type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

type e2eMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

type layerRow struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// budgetRow is one layer's self time per traced op; the rows sum to the
// op time.
type budgetRow struct {
	Row    string  `json:"row"`
	SelfUS float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

func newDocument(cfg *config, clients int, lr *loopResult, checks []string) *document {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	inputs := map[string]int{"clients": clients, "trials": trials(cfg.workload)}
	switch cfg.workload {
	case "read":
		inputs["log_size"] = cfg.readLog
	case "ingest":
		inputs["prefill"] = cfg.ingestLog
	}
	return &document{
		Schema: "perfbench/1",
		Commit: commitOf(),
		Machine: machineInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Kernel: strings.TrimSpace(string(kernel))},
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Seconds: cfg.seconds,
		Inputs: inputs, Correct: len(checks) == 0, Attempted: lr.attempted, Failed: lr.failed, Checks: checks,
	}
}

func writeDoc(cfg *config, doc *document) (string, error) {
	dir := filepath.Join(cfg.workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace))
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// phase holds what the traced run measured over the timed phases of its
// trials.
type phase struct {
	lr     *loopResult // merged over the trials
	trials []*trial
	st     *spanStats
}

// sum adds up f over the trials' phase boundaries.
func (p *phase) sum(f func(before, after *snapshot) float64) float64 {
	var v float64
	for _, t := range p.trials {
		v += f(t.before, t.after)
	}
	return v
}

// end is the state at the end of the last trial, for gauges.
func (p *phase) end() *snapshot { return p.trials[len(p.trials)-1].after }

func (p *phase) delta(daemon, series string) float64 {
	return p.sum(func(b, a *snapshot) float64 { return a.daemon[daemon][series] - b.daemon[daemon][series] })
}

func (p *phase) clientDelta(series string) float64 {
	return p.sum(func(b, a *snapshot) float64 { return a.client[series] - b.client[series] })
}

// histMean is the mean of a daemon histogram's observations in the phase.
func (p *phase) histMean(daemon, series string) float64 {
	c := p.delta(daemon, series+"_count")
	if c == 0 {
		return 0
	}
	return p.delta(daemon, series+"_sum") / c
}

// perOp divides v by the ops attempted in the phase, traced or not.
func (p *phase) perOp(v float64) float64 {
	return ratio(v, float64(p.lr.attempted))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func rpcLatency(kind string) string { return `rpc_latency_seconds{kind="` + kind + `"}` }

// monitorHandlerUS is monitord's handler time per op (µs): proof on
// read, submitbatch on ingest.
func (p *phase) monitorHandlerUS() float64 {
	d := p.delta("monitord", rpcLatency("proof")+"_sum") + p.delta("monitord", rpcLatency("submitbatch")+"_sum")
	return p.perOp(d) * 1e6
}

func (p *phase) fsyncPerOpUS() float64 {
	return p.perOp(p.delta("monitord", "store_wal_fsync_seconds_sum")) * 1e6
}

func (p *phase) shareVerifyPerOpUS() float64 {
	k := "bls_share_batch_verify_seconds_sum"
	return p.perOp(p.clientDelta(k)) * 1e6
}

var daemonNames = []string{"trustdomaind", "monitord", "auditord"}

// layerMetrics computes the per-layer metrics of a traced run.
func (p *phase) layerMetrics() []layerRow {
	lr, end, st := p.lr, p.end(), p.st
	var rows []layerRow
	add := func(layer, name, unit string, v float64) {
		rows = append(rows, layerRow{Layer: layer, Name: name, Value: v, Unit: unit})
	}
	monWait := st.perOpUS(st.total["transport.call/wait"])
	allWait := monWait + st.perOpUS(st.total["blsapp.invoke/wait"]+st.total["audit.audit/wait"])
	add("transport", "transport.wait_us", "us", allWait)
	add("transport", "transport.self_us", "us", monWait-p.monitorHandlerUS())
	add("transport", "transport.client_codec_us", "us", st.perOpUS(st.self["transport.call"]+st.self["blsapp.invoke"]))
	add("transport", "transport.rpcs_per_op", "count", p.perOp(p.sum(func(b, a *snapshot) float64 { return float64(a.writes - b.writes) })))
	add("transport", "transport.bytes_per_op", "bytes", p.perOp(p.sum(func(b, a *snapshot) float64 { return float64(a.bytes - b.bytes) })))

	hits := p.delta("monitord", "serve_cache_hits_total")
	lookups := hits + p.delta("monitord", "serve_cache_misses_total") + p.delta("monitord", "serve_cache_coalesced_total")
	add("serve", "serve.proof_us", "us", p.histMean("monitord", rpcLatency("proof"))*1e6)
	add("serve", "serve.hit_ratio", "ratio", ratio(hits, lookups))
	add("serve", "serve.heads_signed_per_op", "count", p.perOp(p.delta("monitord", "serve_heads_signed_total")))
	add("serve", "serve.heads_pushed_per_op", "count", p.perOp(p.delta("monitord", "serve_heads_pushed_total")))
	add("serve", "serve.heads_dropped_per_op", "count", p.perOp(p.delta("monitord", "serve_heads_dropped_total")))

	add("monitor", "monitor.submit_us", "us", p.histMean("monitord", rpcLatency("submitbatch"))*1e6)
	add("monitor", "monitor.appends_per_op", "count", p.perOp(p.delta("monitord", "monitor_appends_total")))
	add("aolog", "aolog.verify_us", "us", st.perOpUS(st.total["aolog.verify"]))

	fsyncs := p.delta("monitord", "store_wal_fsyncs_total")
	add("store", "store.fsync_ms", "ms", p.histMean("monitord", "store_wal_fsync_seconds")*1e3)
	add("store", "store.fsyncs_per_op", "count", p.perOp(fsyncs))
	add("store", "store.leaves_per_fsync", "count", ratio(p.delta("monitord", "store_appended_leaves_total"), fsyncs))
	add("store", "store.wal_bytes_per_leaf", "bytes", ratio(end.daemon["monitord"]["store_wal_bytes"], end.daemon["monitord"]["store_pending_leaves"]))

	add("gossip", "gossip.heads_ingested_per_op", "count", p.perOp(p.delta("auditord", "gossip_heads_ingested_total")))
	add("gossip", "gossip.verify_ms", "ms", p.histMean("auditord", "gossip_verify_seconds")*1e3)
	add("gossip", "gossip.cosigns_per_op", "count", p.perOp(p.delta("auditord", "gossip_cosigns_issued_total")))
	add("gossip", "gossip.frontier_lag", "leaves", end.daemon["auditord"]["gossip_frontier_lag_max"])

	add("audit", "audit.audit_ms", "ms", st.perOpUS(st.total["audit.audit"])/1e3)
	add("audit", "audit.wait_us", "us", st.perOpUS(st.total["audit.audit/wait"]))

	add("blsapp", "blsapp.invoke_wait_us", "us", st.perOpUS(st.total["blsapp.invoke"]))
	add("blsapp", "blsapp.invokes_per_op", "count", ratio(float64(st.count["blsapp.invoke"]), float64(st.ops)))

	pairs := "bls12381_pairing_pairs_total"
	add("bls", "bls.share_verify_ms", "ms", p.shareVerifyPerOpUS()/1e3)
	add("bls", "bls.combine_ms", "ms", (st.perOpUS(st.self["blsapp.sign"])-p.shareVerifyPerOpUS())/1e3)
	add("bls", "bls.verify_ms", "ms", st.perOpUS(st.total["bls.verify"])/1e3)
	add("bls", "bls.pairings_per_op", "count", p.perOp(p.clientDelta(pairs)))

	add("process", "client.cpu_ms_per_op", "ms", p.perOp(p.sum(func(b, a *snapshot) float64 { return a.clientCPU - b.clientCPU }))*1e3)
	for _, d := range daemonNames {
		add("process", "daemon.cpu_ms_per_op."+d, "ms", p.perOp(p.sum(func(b, a *snapshot) float64 { return a.cpu[d] - b.cpu[d] }))*1e3)
	}
	add("process", "client.allocs_per_op", "count", p.perOp(p.sum(func(b, a *snapshot) float64 { return float64(a.mallocs - b.mallocs) })))
	for _, d := range daemonNames {
		add("process", "daemon.rss_mb."+d, "MB", end.rss[d])
	}
	pct, tailMS := tailOf(sortedMS(lr.lat))
	add("process", "client.tail_ms", "ms", tailMS)
	add("process", "client.tail_pct", "pct", pct)

	add("trace", "trace.unattributed_frac", "ratio", ratio(float64(st.self["op"]), float64(st.opTotal)))
	traced := ratio(float64(lr.tracedOps), lr.tracedDur.Seconds())
	plain := ratio(float64(lr.plainOps), lr.plainDur.Seconds())
	add("trace", "trace.overhead_frac", "ratio", 1-ratio(traced, plain))
	return rows
}

// budget splits the traced op time into per-layer self times. Socket
// waits on monitord are split into its handler time (serve or monitor,
// with the store's fsync time taken out) and the transport remainder.
func (p *phase) budget(workload string) []budgetRow {
	st := p.st
	opUS := st.perOpUS(st.opTotal)
	handler := p.monitorHandlerUS()
	fsync := p.fsyncPerOpUS()
	share := p.shareVerifyPerOpUS()
	rows := []budgetRow{
		{Row: "transport.client_codec", SelfUS: st.perOpUS(st.self["transport.call"] + st.self["blsapp.invoke"])},
		{Row: "transport.self", SelfUS: st.perOpUS(st.total["transport.call/wait"]) - handler},
		{Row: "aolog.verify", SelfUS: st.perOpUS(st.total["aolog.verify"])},
		{Row: "audit.client", SelfUS: st.perOpUS(st.self["audit.audit"])},
		{Row: "audit.wait", SelfUS: st.perOpUS(st.total["audit.audit/wait"])},
		{Row: "blsapp.invoke_wait", SelfUS: st.perOpUS(st.total["blsapp.invoke/wait"])},
		{Row: "bls.share_verify", SelfUS: share},
		{Row: "bls.combine", SelfUS: st.perOpUS(st.self["blsapp.sign"]) - share},
		{Row: "bls.verify", SelfUS: st.perOpUS(st.total["bls.verify"])},
	}
	if workload == "read" {
		rows = append(rows, budgetRow{Row: "serve.proof", SelfUS: handler})
	} else {
		rows = append(rows, budgetRow{Row: "monitor.submit", SelfUS: handler - fsync},
			budgetRow{Row: "store.fsync", SelfUS: fsync})
	}
	rows = append(rows, budgetRow{Row: "unattributed", SelfUS: st.perOpUS(st.self["op"])})
	var out []budgetRow
	for _, r := range rows {
		if r.SelfUS != 0 {
			r.Share = ratio(r.SelfUS, opUS)
			out = append(out, r)
		}
	}
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s budget per traced op (%d ops, %.1f us)\tself_us\tshare\t\n", workload, st.ops, opUS)
	for _, r := range out {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\t\n", r.Row, r.SelfUS, 100*r.Share)
	}
	tw.Flush()
	return out
}

// commitOf reads the checked-out commit from .git in the working
// directory, without running git; outside a git checkout it is
// "unknown".
func commitOf() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
