// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds it together with trustdomaind, monitord and
// auditord, then runs it. It boots those daemons, drives one named
// workload over loopback TCP in a closed loop, verifies every op on the
// client, and prints one JSON result line:
//
//	perfbench -bin DIR -work DIR --workload read|sign|ingest --seed N \
//	          --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. --repeat K
// runs the workload K times back to back and prints each end-to-end
// metric's median, quartiles and spread. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/obsv"
	"repro/internal/transport"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	binDir    string
	workDir   string
	readLog   int                      // log size of the read workload
	ingestLog int                      // prefilled log size of the ingest workload
	maxOps    int64                    // tests only: stop a trial after this many ops
	tamper    func(kind string, v any) // tests only: corrupt responses
}

// The log sizes of a run; only the tests shrink them. The read log
// stays well under the serve tier's 65,536-entry proof cache. Prefill
// cost grows quadratically with the log, because each submission scans
// every earlier observation of its domain; 8,192 ingest leaves keep that
// set-up near 3 s.
const (
	defaultReadLog   = 4096
	defaultIngestLog = 8192
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag, repeat int
	flag.StringVar(&cfg.workload, "workload", "read", "workload: read, sign or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding the daemon binaries")
	flag.StringVar(&cfg.workDir, "work", ".bench_build/run", "directory for daemon state, logs, spans and result documents")
	flag.IntVar(&repeat, "repeat", 0, "steadiness report: run the workload this many times, seeds seed..seed+K-1")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.readLog, cfg.ingestLog = defaultReadLog, defaultIngestLog
	if repeat > 0 {
		if err := steadiness(repeat, os.Args[1:], cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, doc, err := run(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if path, err := writeDoc(&cfg, doc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result document:", err)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: result document", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// trial is one set-up from scratch followed by its share of the timed
// phase. A run is several trials, so that its figures average over
// several instances of the daemons, not just over time.
type trial struct {
	setupS        float64
	lr            *loopResult
	before, after *snapshot
	checks        []string
}

// run executes one run: its trials, then the checks and the metrics.
func run(cfg *config) (*result, *document, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	if cfg.trace {
		installDialHook()
		defer transport.SetDialHook(nil)
	}
	k := trials(cfg.workload)
	dur := time.Duration(cfg.seconds * float64(time.Second) / float64(k))
	var ts []*trial
	var clients int
	var next int64
	for i := 0; i < k; i++ {
		wl, err := newWorkload(cfg)
		if err != nil {
			return nil, nil, err
		}
		clients = wl.clients()
		t, err := runTrial(cfg, wl, filepath.Join(dir, "trial-"+strconv.Itoa(i)), dur, next)
		if err != nil {
			return nil, nil, fmt.Errorf("%s trial %d: %w", cfg.workload, i, err)
		}
		next += t.lr.attempted
		ts = append(ts, t)
	}

	lr := &loopResult{}
	var checks []string
	var setupS, rss []float64
	var windows []float64
	for _, t := range ts {
		lr.merge(t.lr)
		checks = append(checks, t.checks...)
		setupS = append(setupS, t.setupS)
		rss = append(rss, t.after.rssTotal)
		windows = append(windows, windowRates(t.lr.done, t.lr.elapsed)...)
	}
	if lr.failed > 0 {
		checks = append(checks, fmt.Sprintf("%d of %d ops failed verification", lr.failed, lr.attempted))
	}
	if lr.attempted == 0 {
		checks = append(checks, "no op was attempted")
	}
	doc := newDocument(cfg, clients, lr, checks)
	res := &result{Correct: len(checks) == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metricValue{}}
	if cfg.trace {
		p := &phase{lr: lr, trials: ts, st: aggregate(lr.traces)}
		doc.Layers = p.layerMetrics()
		for _, r := range doc.Layers {
			res.Metrics[r.Name] = metricValue{r.Value, r.Unit}
		}
		doc.Budget = p.budget(cfg.workload)
		if err := writeSpans(filepath.Join(cfg.workDir, "spans-"+cfg.workload+".jsonl"), lr.traces); err != nil {
			return nil, nil, err
		}
	} else {
		ms := sortedMS(lr.lat)
		e2e := []e2eMetric{
			{"ops_per_s", float64(len(ms)) / lr.elapsed.Seconds(), "1/s", len(ms)},
			{"p50_ms", quantile(ms, 0.5), "ms", len(ms)},
			{"setup_s", median(setupS), "s", len(setupS)},
			{"rss_mb", median(rss), "MB", len(rss)},
		}
		doc.EndToEnd = e2e
		doc.Windows = windows
		for _, m := range e2e {
			res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
		}
	}
	for _, c := range checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	return res, doc, nil
}

// runTrial sets wl up in dir, drives it for dur, runs its end checks and
// stops its daemons. Op numbers start at firstOp.
func runTrial(cfg *config, wl workload, dir string, dur time.Duration, firstOp int64) (*trial, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, dir: dir}
	defer e.stopAll()
	defer wl.close()
	setupS, err := wl.setup(e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t := &trial{setupS: setupS}
	if t.before, err = takeSnapshot(e); err != nil {
		return nil, err
	}
	e.timed = true
	t.lr = runLoop(wl.clients(), dur, firstOp, cfg.maxOps, cfg.trace, wl.op)
	if t.after, err = takeSnapshot(e); err != nil {
		return nil, err
	}
	if err := wl.finish(); err != nil {
		t.checks = append(t.checks, err.Error())
	}
	return t, nil
}

// snapshot is the state read at a phase boundary.
type snapshot struct {
	daemon    map[string]map[string]float64 // /metrics.json per daemon
	cpu       map[string]float64            // CPU seconds per daemon
	rss       map[string]float64            // peak RSS (MB) per daemon
	rssTotal  float64
	client    map[string]float64 // the load generator's own registry
	clientCPU float64
	mallocs   uint64
	writes    int64
	bytes     int64
}

var clientReg = func() *obsv.Registry {
	reg := obsv.NewRegistry()
	bls.RegisterMetrics(reg)
	bls12381.RegisterMetrics(reg)
	return reg
}()

func takeSnapshot(e *env) (*snapshot, error) {
	s := &snapshot{daemon: map[string]map[string]float64{},
		cpu: map[string]float64{}, rss: map[string]float64{}}
	for _, d := range e.daemons {
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		s.daemon[d.name] = m
		if s.cpu[d.name], err = d.cpuSeconds(); err != nil {
			return nil, err
		}
		if s.rss[d.name], err = d.peakRSSMB(); err != nil {
			return nil, err
		}
		s.rssTotal += s.rss[d.name]
	}
	s.client = clientReg.Snapshot()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	s.clientCPU = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.writes, s.bytes = connTotals()
	return s, nil
}

// steadiness runs this program repeat times with consecutive seeds and
// prints, per end-to-end metric, the median, quartiles and the spread
// (interquartile distance as a share of the median).
func steadiness(repeat int, args []string, seed int64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var base []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(a, "=")
		if name == "repeat" || name == "seed" {
			if !hasValue {
				i++
			}
			continue
		}
		base = append(base, args[i])
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < repeat; k++ {
		cmd := exec.Command(self, append(base, "--seed", strconv.FormatInt(seed+int64(k), 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", k, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: %w", k, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d: %d of %d ops failed", k, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "run %d/%d: %s\n", k+1, repeat, lines[len(lines)-1])
	}
	report := map[string]any{}
	fmt.Printf("%-28s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-28s %12.4f %12.4f %12.4f %7.2f%%  %s\n", name, q1, med, q3, 100*spread, units[name])
		report[name] = map[string]any{"q1": q1, "median": med, "q3": q3, "spread": spread, "unit": units[name], "values": values[name]}
	}
	line, _ := json.Marshal(report)
	fmt.Println(string(line))
	return nil
}

// quartiles follows Python's statistics.quantiles(values, n=4) with its
// default exclusive method, which is how the bounds are checked.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	at := func(p float64) float64 {
		pos := p*(n+1) - 1 // zero-based position
		if pos <= 0 {
			return s[0]
		}
		if pos >= n-1 {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}
