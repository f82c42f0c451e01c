package transport

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// flakyServer speaks just enough of the frame protocol to misbehave on
// demand: the first failConns connections are closed after reading one
// request (a post-send transport failure from the client's view); later
// connections serve every request with an OK empty response. It records
// the kind of every request it READ — the ground truth for "was this
// RPC re-sent".
type flakyServer struct {
	ln        net.Listener
	mu        sync.Mutex
	kinds     []string
	conns     int
	failConns int
	wg        sync.WaitGroup
}

func newFlakyServer(t *testing.T, failConns int) *flakyServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &flakyServer{ln: ln, failConns: failConns}
	fs.wg.Add(1)
	go fs.loop()
	t.Cleanup(fs.stop)
	return fs
}

func (fs *flakyServer) stop() {
	fs.ln.Close()
	fs.wg.Wait()
}

func (fs *flakyServer) addr() string { return fs.ln.Addr().String() }

func (fs *flakyServer) seenKinds() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.kinds...)
}

func (fs *flakyServer) loop() {
	defer fs.wg.Done()
	for {
		c, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.conns++
		failThis := fs.conns <= fs.failConns
		fs.mu.Unlock()
		fs.wg.Add(1)
		go func() {
			defer fs.wg.Done()
			defer c.Close()
			for {
				_, frame, err := ReadFrameHeader(c)
				if err != nil {
					return
				}
				var req Request
				if json.Unmarshal(frame, &req) == nil {
					fs.mu.Lock()
					fs.kinds = append(fs.kinds, req.Kind)
					fs.mu.Unlock()
				}
				if failThis {
					return // close without answering: lost response
				}
				out, _ := json.Marshal(&Response{ID: req.ID, OK: true, Body: json.RawMessage("{}")})
				if err := WriteFrame(c, out); err != nil {
					return
				}
			}
		}()
	}
}

func managedOpts() ManagedOptions {
	return ManagedOptions{
		ConnectTimeout:  time.Second,
		MaxAttempts:     3,
		BaseDelay:       time.Millisecond,
		MaxDelay:        5 * time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
		Rand:            func() float64 { return 0.5 },
	}
}

// TestManagedRetriesIdempotentPostSend: a lost response on an idempotent
// kind is retried on a fresh connection and succeeds.
func TestManagedRetriesIdempotentPostSend(t *testing.T) {
	fs := newFlakyServer(t, 1)
	m := DialManaged(fs.addr(), managedOpts())
	defer m.Close()
	if err := m.Call("head", struct{}{}, nil); err != nil {
		t.Fatalf("idempotent call under one lost response: %v", err)
	}
	kinds := fs.seenKinds()
	if len(kinds) != 2 || kinds[0] != "head" || kinds[1] != "head" {
		t.Fatalf("server saw %v, want [head head]", kinds)
	}
	if _, retries, _ := m.Stats(); retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
}

// TestManagedNeverResendsNonIdempotent: a lost response on a
// non-idempotent kind fails WITHOUT a re-send — the wire must show
// exactly one submit.
func TestManagedNeverResendsNonIdempotent(t *testing.T) {
	fs := newFlakyServer(t, 1)
	m := DialManaged(fs.addr(), managedOpts())
	defer m.Close()
	err := m.Call("submit", struct{}{}, nil)
	if err == nil {
		t.Fatal("submit with lost response returned nil error")
	}
	var remote *ErrRemote
	if errors.As(err, &remote) {
		t.Fatalf("expected transport error, got remote: %v", err)
	}
	if kinds := fs.seenKinds(); len(kinds) != 1 {
		t.Fatalf("server saw %d submits (%v), want exactly 1 — non-idempotent kinds must not be re-sent", len(kinds), kinds)
	}
}

// TestManagedRemoteErrorNotRetried: a server-answered error comes back
// verbatim with no retry (the RPC completed).
func TestManagedRemoteErrorNotRetried(t *testing.T) {
	srv := NewServer()
	srv.Handle("head", func(json.RawMessage) (any, error) { return nil, errors.New("nope") })
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := DialManaged(addr, managedOpts())
	defer m.Close()
	err = m.Call("head", struct{}{}, nil)
	var remote *ErrRemote
	if !errors.As(err, &remote) || remote.Msg != "nope" {
		t.Fatalf("err = %v, want ErrRemote{nope}", err)
	}
	if _, retries, _ := m.Stats(); retries != 0 {
		t.Fatalf("retries = %d, want 0", retries)
	}
}

// TestManagedReconnectsAcrossCalls: endpoint down → call fails; endpoint
// comes back on the same address → next call succeeds with no new
// client object.
func TestManagedReconnectsAcrossCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opts := managedOpts()
	opts.BreakerThreshold = 100 // keep the breaker out of this test
	m := DialManaged(addr, opts)
	defer m.Close()
	if err := m.Call("submit", struct{}{}, nil); err == nil {
		t.Fatal("call to dead endpoint succeeded")
	}
	// Dial failures send nothing, so even the non-idempotent submit used
	// all attempts.
	if _, retries, _ := m.Stats(); retries != 2 {
		t.Fatalf("retries = %d, want 2 (dial failures retry any kind)", retries)
	}

	srv := NewServer()
	srv.Handle("submit", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv.Serve(ln2)
	defer srv.Close()
	if err := m.Call("submit", struct{}{}, nil); err != nil {
		t.Fatalf("call after endpoint recovery: %v", err)
	}
}

// TestManagedBreaker: consecutive failures open the circuit (calls shed
// without dialing); after the cooldown a half-open probe closes it.
func TestManagedBreaker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opts := managedOpts()
	opts.MaxAttempts = 1
	opts.BreakerThreshold = 2
	m := DialManaged(addr, opts)
	defer m.Close()
	for i := 0; i < 2; i++ {
		if err := m.Call("head", struct{}{}, nil); err == nil {
			t.Fatal("call to dead endpoint succeeded")
		}
	}
	if got := m.Breaker().State(); got != "open" {
		t.Fatalf("breaker state = %q, want open", got)
	}
	if err := m.Call("head", struct{}{}, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call with open breaker = %v, want ErrCircuitOpen", err)
	}
	if _, _, rejected := m.Stats(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}

	// Recovery: bring the endpoint back, wait out the cooldown; the
	// half-open probe must succeed and close the circuit.
	srv := NewServer()
	srv.Handle("head", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv.Serve(ln2)
	defer srv.Close()
	time.Sleep(60 * time.Millisecond)
	if err := m.Call("head", struct{}{}, nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if got := m.Breaker().State(); got != "closed" {
		t.Fatalf("breaker state after probe = %q, want closed", got)
	}
}

// TestClientCallTimeout: a server that never answers must not hang a
// client with SetTimeout.
func TestClientCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			// read the request, never answer
			_, _, _ = ReadFrameHeader(c)
		}
	}()
	c, err := DialTimeout(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(80 * time.Millisecond)
	start := time.Now()
	err = c.Call("head", struct{}{}, nil)
	if err == nil {
		t.Fatal("call to mute server returned nil")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

// TestCallCtxDeadline: a context deadline bounds the call even without
// SetTimeout.
func TestCallCtxDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _, _ = ReadFrameHeader(c)
		select {} // never answer
	}()
	c, err := DialTimeout(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	if err := c.CallCtx(ctx, "head", struct{}{}, nil); err == nil {
		t.Fatal("call with expired context deadline returned nil")
	}
}
