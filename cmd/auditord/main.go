// Command auditord runs one witness in the gossip network: it pulls
// BLS-signed tree heads (plus consistency proofs) from the monitors it
// watches, advances a per-source cosigned frontier, exchanges frontiers
// with peer witnesses, and serves the client "pollination" path. A forked
// monitor — one that shows different logs to different witnesses — is
// convicted within one gossip round by a portable equivocation proof any
// third party can verify offline (gossip.VerifyEquivocationProof).
//
//	auditord -name w1 -listen 127.0.0.1:7171 \
//	         -sources monitor=127.0.0.1:7070 \
//	         -peers 127.0.0.1:7172,127.0.0.1:7173 \
//	         -interval 5s
//
// Protocol (framed JSON, see internal/transport and internal/gossip):
//
//	gossip_heads {from, heads}  -> witness-to-witness frontier exchange
//	cosign       {source, head, consistency?} -> countersign one head
//	pollinate    {heads}        -> client path: submit seen heads, get the
//	                               cosigned frontier + equivocation proofs
//	witness_info {}             -> witness identity (name, cosigning key)
//	pull         {}             -> fetch head+consistency from every source
//	round        {}             -> pull, then gossip with every peer
//	proofs       {}             -> all equivocation proofs held
//	subscribe    {from?}        -> register this connection for pushes of
//	                               the witness's cosigned frontier (one
//	                               "_batch" frame of push_heads per flush)
//	unsubscribe  {}             -> deregister the connection
//
// With -subscribe the witness additionally opens a push channel TO each
// source: monitors push each new BLS-signed head the moment it exists,
// the witness verifies consistency and cosigns immediately, and its own
// subscribers receive the refreshed cosigned frontier — split-view
// detection latency drops from a polling interval to one push hop.
//
// Source and peer keys are fetched at startup (trust-on-first-use for the
// demo; a production deployment pins them in configuration).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/daemon"
	"repro/internal/gossip"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/transport"
)

// kit is the plumbing shared with the other daemons; New registers its flags.
var kit = daemon.New("auditord")

// The frontier-lag watchdog: the witness degrades once its worst source
// lag stays above lagThreshold leaves for lagDeadline.
const (
	lagDeadline  = 30 * time.Second
	lagThreshold = 1024
)

// sourceConn is one watched monitor. The connection is managed — lazy
// reconnect, retry/backoff, circuit breaker — so a monitor restart or a
// transient partition costs a retried call, not a dead witness.
type sourceConn struct {
	name string
	addr string
	conn *transport.ManagedClient
}

type pullResponse struct {
	Heads  []gossip.GossipHead `json:"heads"`
	Errors []string            `json:"errors,omitempty"`
}

type roundResponse struct {
	gossip.RoundSummary
	PullErrors []string `json:"pull_errors,omitempty"`
}

func main() {
	var (
		name       = flag.String("name", "witness", "this witness's name")
		listen     = flag.String("listen", "127.0.0.1:0", "listen address")
		sources    = flag.String("sources", "", "comma-separated name=addr monitor list")
		peers      = flag.String("peers", "", "comma-separated peer witness addresses")
		dataDir    = flag.String("data", "", "durable storage directory; empty runs in-memory (cosigning key and evidence are lost on exit)")
		interval   = flag.Duration("interval", 0, "automatic pull+gossip period (0 = RPC-driven only)")
		subscribe  = flag.Bool("subscribe", false, "subscribe to head pushes from every source instead of relying on polling alone")
		traceEvery = flag.Int("trace", 64, "sample one in N requests for tracing (0 disables local roots)")
		rpcTimeout = flag.Duration("rpc-timeout", 10*time.Second, "per-call deadline (and connect timeout) on RPCs to sources and peers; 0 disables")
	)
	flag.Parse()
	if *sources == "" {
		kit.Fatal("need at least one -sources name=addr entry")
	}
	kit.Boot(*dataDir)
	defer kit.Flight.DumpOnPanic(kit.DiagDir, kit.Name)
	kit.Trace(*traceEvery)

	// Every source and peer RPC kind this witness issues is idempotent
	// (head/consistency reads and monotone gossip merges), so the managed
	// client's retry policy is safe across the board.
	mopts := transport.ManagedOptions{
		ConnectTimeout: *rpcTimeout,
		CallTimeout:    *rpcTimeout,
		OnRetry: func(kind string, attempt int, err error) {
			kit.Logger.Warn("rpc retry", "kind", kind, "attempt", attempt, "err", err)
		},
	}

	var w *gossip.Witness
	if *dataDir != "" {
		// Persistent witness: stable cosigning identity, and the evidence
		// base (recorded heads, cosignatures, equivocation proofs)
		// survives restarts — frontiers resume instead of re-TOFUing.
		witness, rec, err := gossip.OpenWitness(*dataDir, gossip.Config{Name: *name})
		if err != nil {
			kit.Fatal("opening witness journal", "err", err, "data", *dataDir)
		}
		w = witness
		kit.Logger.Info("recovered evidence", "heads", rec.Heads, "cosigs", rec.Cosigs,
			"proofs", rec.Proofs, "pending", rec.Pending)
	} else {
		key, _, err := bls.GenerateKey()
		if err != nil {
			kit.Fatal("keygen", "err", err)
		}
		w, err = gossip.NewWitness(gossip.Config{Name: *name, Key: key})
		if err != nil {
			kit.Fatal("creating witness", "err", err)
		}
	}
	w.RegisterMetrics(kit.Registry)
	w.SetFlightRecorder(kit.Flight)
	// A witness whose evidence journal can no longer be written must not
	// look ready: its cosignatures would not survive a restart.
	kit.Health.Set("witness-journal", w.Err)
	// A frontier stuck far behind the largest signed size seen means
	// this witness cannot advance (missing consistency proofs, a wedged
	// source, or an equivocating log): degraded, with profiles.
	kit.Dogs.AddProbe("gossip-frontier-lag", lagDeadline, func() (bool, string) {
		if lag := w.FrontierLagMax(); lag > lagThreshold {
			return true, fmt.Sprintf("worst source lag %d leaves", lag)
		}
		return false, ""
	})

	// Connect to sources; fetch their tree-head keys (TOFU for the demo).
	var srcs []*sourceConn
	for _, entry := range strings.Split(*sources, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), "=", 2)
		if len(parts) != 2 {
			kit.Fatal("bad -sources entry (want name=addr)", "entry", entry)
		}
		sc := &sourceConn{name: parts[0], addr: parts[1]}
		sc.conn = transport.DialManaged(sc.addr, mopts)
		var info struct {
			BLSKey []byte `json:"bls_key"`
			Size   uint64 `json:"size"`
		}
		if err := sc.conn.Call("info", struct{}{}, &info); err != nil {
			kit.Fatal("fetching source identity", "source", sc.name, "err", err)
		}
		pk := new(bls.PublicKey)
		if err := pk.SetBytes(info.BLSKey); err != nil {
			kit.Fatal("bad source BLS key", "source", sc.name, "err", err)
		}
		if err := w.AddSource(gossip.Source{Name: sc.name, Key: pk}); err != nil {
			kit.Fatal("adding source", "source", sc.name, "err", err)
		}
		kit.Logger.Info("watching source", "source", sc.name, "addr", sc.addr, "size", info.Size)
		srcs = append(srcs, sc)
	}

	// Connect to peers; accept their cosigning keys (TOFU for the demo).
	// Peers ride managed clients too: a peer witness that restarts or
	// drops mid-round is retried and, if persistently dead, its circuit
	// opens so rounds skip it cheaply until it heals.
	var peerConns []*gossip.Peer
	for _, addr := range strings.FieldsFunc(*peers, func(r rune) bool { return r == ',' }) {
		p := gossip.NewPeer(transport.DialManaged(strings.TrimSpace(addr), mopts))
		info, err := p.Info()
		if err != nil {
			kit.Fatal("fetching peer identity", "peer", addr, "err", err)
		}
		pk := new(bls.PublicKey)
		if err := pk.SetBytes(info.PublicKey); err != nil {
			kit.Fatal("bad peer key", "peer", addr, "err", err)
		}
		if err := w.AddWitness(pk); err != nil {
			kit.Fatal("adding peer witness", "peer", addr, "err", err)
		}
		peerConns = append(peerConns, p)
	}

	// pull fetches every source, tolerating per-source failures: one dead
	// monitor must not stop this witness from gossiping the frontiers
	// and proofs it holds for the healthy ones.
	pull := func() []string {
		var errs []string
		for _, sc := range srcs {
			if err := pullSource(w, sc); err != nil {
				kit.Logger.Warn("pull failed", "source", sc.name, "err", err)
				errs = append(errs, err.Error())
			}
		}
		return errs
	}

	// hub pushes this witness's cosigned frontier to its own subscribers
	// (downstream clients and witnesses) whenever the frontier advances.
	hub := serve.NewHub(*name)
	defer hub.Close()
	publishFrontier := func() { hub.Publish(w.FrontierHeads()) }

	srv := transport.NewServer()
	w.Register(srv)
	srv.Handle("pull", func(json.RawMessage) (any, error) {
		errs := pull()
		publishFrontier()
		return pullResponse{Heads: w.FrontierHeads(), Errors: errs}, nil
	})
	// round pulls every source, gossips with every peer, and publishes
	// whatever frontier the two reached, even when gossip failed.
	round := func() (*roundResponse, error) {
		errs := pull()
		sum, err := w.Round(peerConns)
		publishFrontier()
		if err != nil {
			return nil, err
		}
		return &roundResponse{RoundSummary: *sum, PullErrors: errs}, nil
	}
	srv.Handle("round", func(json.RawMessage) (any, error) { return round() })
	srv.Handle("proofs", func(json.RawMessage) (any, error) {
		return w.Proofs(), nil
	})
	serve.RegisterHub(srv, hub, w.FrontierHeads)

	// With -subscribe, open a push channel from every source: pushed
	// heads are verified+cosigned the moment they arrive, and the
	// refreshed frontier is pushed onward to this witness's subscribers.
	var autos []*serve.AutoSubscriber
	if *subscribe {
		for _, sc := range srcs {
			auto, err := subscribeSource(w, sc, *rpcTimeout, publishFrontier)
			if err != nil {
				kit.Fatal("subscribing to source", "source", sc.name, "err", err)
			}
			autos = append(autos, auto)
		}
	}

	addr := kit.Start(obsv.DefaultWitnessSLOs(), srv, *listen)
	kb := w.PublicKey().Bytes()
	kit.Logger.Info("serving", "addr", addr, "sources", len(srcs),
		"peers", len(peerConns), "subscribed", *subscribe,
		"cosigning_key", fmt.Sprintf("%x", kb[:]))

	if *interval > 0 {
		kit.Every(*interval, func() {
			if sum, err := round(); err != nil {
				kit.Logger.Warn("gossip round failed", "err", err)
			} else if sum.NewProofs > 0 {
				kit.Logger.Warn("new equivocation proofs", "count", sum.NewProofs)
			}
		})
	}

	// Clean shutdown: closing the push channels and the source and peer
	// connections releases the round loop and push workers mid-call;
	// kit.Close waits for them, so nothing ingests into the witness once
	// its evidence journal is flushed and closed.
	kit.Wait()
	for _, a := range autos {
		a.Close()
	}
	for _, sc := range srcs {
		sc.conn.Close()
	}
	for _, p := range peerConns {
		p.Close()
	}
	srv.Close()
	kit.Close()
	if err := w.Close(); err != nil {
		kit.Fatal("flushing journal", "err", err)
	}
	if *dataDir != "" {
		kit.Logger.Info("journal flushed", "data", *dataDir)
	}
}

// subscribeSource opens a self-healing push channel to one source (the
// polling connection stays synchronous request/response): an
// AutoSubscriber redials with jittered backoff whenever the connection
// dies, resumes from the per-source floors of everything already
// delivered, and re-subscribes — so across any number of reconnects the
// worker sees one strictly-increasing head sequence, with no duplicate
// deliveries and no regressions. Pushed heads are processed off the
// read loop: a mailbox keeps only the latest pushed head, a worker
// fetches the consistency proof bridging the witness's frontier (over
// the same subscribed connection, pinned to the pushed size so a
// growing log cannot outrun it), ingests, and publishes the refreshed
// cosigned frontier onward. While the channel is down the polling path
// keeps the witness correct; the subscription catches back up on its
// own when the source heals.
func subscribeSource(w *gossip.Witness, sc *sourceConn, dialTimeout time.Duration, publish func()) (*serve.AutoSubscriber, error) {
	if dialTimeout <= 0 {
		dialTimeout = transport.DefaultDialTimeout
	}
	var latest atomic.Pointer[gossip.GossipHead]
	kick := make(chan struct{}, 1)
	auto, err := serve.NewAutoSubscriber(serve.AutoOptions{
		From: w.Name(),
		// Dial through the injector so chaos schedules partition the push
		// channel too (a nil injector dials plainly).
		Dial: func() (net.Conn, error) { return kit.Fault.Dial(sc.addr, dialTimeout) },
		OnHeads: func(_ string, heads []gossip.GossipHead) {
			// Read-loop context: park the newest head and return. Calling
			// auto.Call here would deadlock (the response needs this loop).
			latest.Store(&heads[len(heads)-1])
			select {
			case kick <- struct{}{}:
			default:
			}
		},
		OnState: func(event string, err error) {
			switch event {
			case "connected":
				kit.Logger.Info("push channel up", "source", sc.name)
			case "disconnected":
				kit.Logger.Warn("push channel lost, reconnecting (polling continues)", "source", sc.name, "err", err)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	kit.Go(func(stop <-chan struct{}) {
		for {
			select {
			case <-stop:
				return
			case <-kick:
			}
			gh := latest.Swap(nil)
			if gh == nil {
				continue
			}
			if err := ingestHead(w, sc.name, gh.Head, auto.Call); err != nil {
				kit.Logger.Warn("pushed head not ingested", "source", sc.name, "size", gh.Head.Size, "err", err)
				continue
			}
			publish()
		}
	})
	return auto, nil
}

// errLogMoved reports a consistency proof that ends past the head it was
// asked for: the log grew between the head and proof fetches.
var errLogMoved = errors.New("log grew between head and proof fetches")

// pullSource fetches the source's current BLS head and ingests it. The
// serving tier pins the proof to the head's size; a monitor without it
// proves up to its current size, which a live log can have moved past,
// so retry until the proof ends at the fetched head.
func pullSource(w *gossip.Witness, sc *sourceConn) error {
	for attempt := 0; attempt < 3; attempt++ {
		var head aolog.BLSSignedHead
		if err := sc.conn.Call("headbls", struct{}{}, &head); err != nil {
			return fmt.Errorf("auditord: head from %s: %w", sc.name, err)
		}
		if err := ingestHead(w, sc.name, head, sc.conn.Call); !errors.Is(err, errLogMoved) {
			return err
		}
	}
	return fmt.Errorf("auditord: source %s log kept moving between head and proof fetches", sc.name)
}

// ingestHead ingests one head from source. When the head is ahead of the
// witness's cosigned frontier, call first fetches the consistency proof
// bridging the two.
func ingestHead(w *gossip.Witness, source string, head aolog.BLSSignedHead, call func(kind string, in, out any) error) error {
	var cons *aolog.ShardConsistencyProof
	if front, ok := w.Frontier(source); ok && head.Size > front.Size {
		cons = new(aolog.ShardConsistencyProof)
		req := serve.ConsistencyRequest{OldSize: int(front.Size), NewSize: int(head.Size)}
		if err := call("consistency", req, cons); err != nil {
			return fmt.Errorf("auditord: consistency from %s: %w", source, err)
		}
		if cons.NewSize != int(head.Size) {
			return errLogMoved
		}
	}
	res := w.Ingest(source, head, cons)
	if res.Err != nil {
		return fmt.Errorf("auditord: ingesting %s head: %w", source, res.Err)
	}
	if res.Proof != nil {
		kit.Logger.Warn("source convicted of equivocation", "source", source, "size", head.Size)
	}
	return nil
}
