// Package daemon is the process kit monitord, auditord and trustdomaind
// share: the flags all of them take, the diagnosis plane, the chaos plane
// behind -debug-hooks, and signal-driven shutdown. A main calls New
// before flag.Parse and Boot right after it, builds its own state,
// watchdogs and handlers, then calls Start and Wait, and closes its own
// state around Close.
package daemon

import (
	"cmp"
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/transport"
)

// Daemon is one daemon process's shared plumbing. New fills Name and
// Logger; Boot fills the rest.
type Daemon struct {
	Name   string
	Logger *slog.Logger

	// DiagDir receives flight dumps and watchdog profiles: the data
	// directory, or the system temp directory for an in-memory daemon.
	DiagDir  string
	Registry *obsv.Registry
	Health   *obsv.Health
	Flight   *obsv.FlightRecorder
	Dogs     *obsv.WatchdogSet
	// Fault is the injector armed by -fault-schedule; nil (and nil-safe)
	// otherwise.
	Fault *fault.Injector
	// DebugHooks is -debug-hooks: debug RPCs and fault injection allowed.
	DebugHooks bool

	metrics, faultSchedule string
	sloInterval            time.Duration

	tracer    *obsv.Tracer
	slo       *obsv.SLOEngine
	ms        *obsv.MetricsServer
	stopDumps func()
	sig       chan os.Signal
	stop      chan struct{}
	workers   sync.WaitGroup
}

// New creates the kit of the daemon called name and registers the shared
// flags on the command line.
func New(name string) *Daemon {
	d := &Daemon{Name: name, Logger: obsv.NewLogger(os.Stderr, name, nil), stop: make(chan struct{})}
	flag.StringVar(&d.metrics, "metrics", "", "observability HTTP address (/metrics, /healthz, /readyz, /traces, /slo, /debug/flight, pprof); empty disables")
	flag.DurationVar(&d.sloInterval, "slo-interval", obsv.DefaultSLOInterval, "SLO burn-rate sampling interval")
	flag.BoolVar(&d.DebugHooks, "debug-hooks", false, "enable debug RPCs and fault-injection flags — test deployments only")
	flag.StringVar(&d.faultSchedule, "fault-schedule", "", "deterministic fault-injection schedule file; rules whose target= names this daemon apply (requires -debug-hooks)")
	return d
}

// Fatal logs msg with its key/value args and exits with status 1.
func (d *Daemon) Fatal(msg string, args ...any) {
	d.Logger.Error(msg, args...)
	os.Exit(1)
}

// Boot builds the diagnosis plane, starts the watchdogs and arms the
// chaos plane. dataDir is the daemon's data directory, empty when it
// keeps its state in memory.
func (d *Daemon) Boot(dataDir string) {
	if d.faultSchedule != "" && !d.DebugHooks {
		d.Fatal("-fault-schedule requires -debug-hooks")
	}
	// A SIGTERM during start-up is held for Wait.
	d.sig = make(chan os.Signal, 1)
	signal.Notify(d.sig, syscall.SIGINT, syscall.SIGTERM)

	d.DiagDir = cmp.Or(dataDir, os.TempDir())
	d.Registry = obsv.NewRegistry()
	d.Health = obsv.NewHealth()
	d.Health.Register(d.Registry)
	bls.RegisterMetrics(d.Registry)
	bls12381.RegisterMetrics(d.Registry)
	d.Flight = obsv.NewFlightRecorder(obsv.DefaultFlightSize)
	d.Flight.Register(d.Registry)
	// Watchdogs the daemon adds later join the running set, which every
	// daemon evaluates at the same 100 ms tick.
	d.Dogs = obsv.NewWatchdogSet(d.Name, d.DiagDir, d.Flight)
	d.Dogs.SetLogger(d.Logger)
	d.Dogs.Register(d.Registry)
	d.Dogs.BindHealth(d.Health)
	d.Dogs.Start(100 * time.Millisecond)

	// A seeded schedule makes faults deterministic, so a CI failure
	// replays locally from the schedule file alone. The injector hooks
	// every outbound dial and accepted connection; each injection lands
	// on /debug/flight tagged "injected".
	if d.faultSchedule == "" {
		return
	}
	sched, err := fault.LoadSchedule(d.faultSchedule)
	if err != nil {
		d.Fatal("loading fault schedule", "err", err)
	}
	d.Fault = fault.Activate(sched, d.Name)
	d.Fault.SetFlightRecorder(d.Flight)
	transport.SetDialHook(d.Fault.Dial)
	transport.SetListenerWrap(d.Fault.Listener)
	d.Logger.Info("chaos plane armed", "schedule", d.faultSchedule,
		"target", d.Name, "seed", sched.Seed, "rules", len(sched.Rules))
}

// Trace gives the daemon a tracer sampling one in every requests (0
// disables local roots), for Start's RPC server and /traces endpoint.
func (d *Daemon) Trace(every int) {
	d.tracer = obsv.NewTracer(every)
	d.tracer.Register(d.Registry)
	d.tracer.SetLogger(d.Logger)
}

// Start runs the SLO engine over objs, arms the flight-dump triggers
// and, with -metrics, brings up the observability endpoint. Then, so the
// endpoint is up before the first RPC arrives, it instruments srv, when
// the daemon has one, and serves it on listen, returning the bound
// address.
func (d *Daemon) Start(objs []obsv.Objective, srv *transport.Server, listen string) string {
	d.slo = obsv.NewSLOEngine(d.Registry, objs, d.sloInterval)
	d.slo.Register(d.Registry)
	d.slo.Start()
	d.stopDumps = d.Flight.ArmDumps(d.DiagDir, d.Name, d.Health, d.Logger)
	if d.metrics != "" {
		ms, err := obsv.Endpoint{
			Daemon:   d.Name,
			Registry: d.Registry,
			Health:   d.Health,
			Tracer:   d.tracer,
			Flight:   d.Flight,
			SLO:      d.slo,
		}.ListenAndServe(d.metrics)
		if err != nil {
			d.Fatal("metrics endpoint", "err", err)
		}
		d.ms = ms
		d.Logger.Info("observability endpoint up", "addr", ms.Addr)
	}
	if srv == nil {
		return ""
	}
	srv.Instrument(d.Registry, d.tracer)
	srv.SetFlightRecorder(d.Flight)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		d.Fatal("listen", "addr", listen, "err", err)
	}
	srv.Serve(ln)
	return ln.Addr().String()
}

// Go runs fn on its own goroutine. stop closes when Wait returns, and
// Close waits for fn to return; a worker blocked on a connection is
// released by closing that connection between the two.
func (d *Daemon) Go(fn func(stop <-chan struct{})) {
	d.workers.Add(1)
	go func() {
		defer d.workers.Done()
		fn(d.stop)
	}()
}

// Every runs fn every interval until shutdown; Close waits for a run in
// progress.
func (d *Daemon) Every(interval time.Duration, fn func()) {
	d.Go(func(stop <-chan struct{}) {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				fn()
			}
		}
	})
}

// Wait blocks until SIGINT or SIGTERM, then tells the Go workers to stop.
func (d *Daemon) Wait() {
	got := <-d.sig
	d.Logger.Info("shutting down", "signal", got.String())
	close(d.stop)
}

// Close waits for the Go workers, then stops the dump triggers,
// watchdogs, SLO engine and observability endpoint.
func (d *Daemon) Close() {
	d.workers.Wait()
	d.stopDumps()
	d.Dogs.Close()
	d.slo.Close()
	if d.ms != nil {
		d.ms.Close()
	}
}
