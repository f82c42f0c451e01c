package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// This file is the self-healing client layer. A raw Client is a single
// fragile connection: one reset, timeout, or mid-frame failure and it is
// dead forever. ManagedClient wraps one endpoint with the full
// reliability kit — lazy (re)connect with a connect timeout, per-call
// deadlines, exponential backoff with full jitter, a circuit breaker,
// and an idempotency table so only safe RPC kinds are ever re-sent.
//
// The retry rule that keeps this safe: a DIAL failure may retry any
// kind (nothing was sent), but once a request has been written, a
// transport failure retries only kinds listed as idempotent — the
// server may have executed a request whose response was lost, and
// re-sending a submit or invoke would double-apply it. Server-answered
// errors (ErrRemote) never retry: the RPC completed; it just failed.

// ErrCircuitOpen is returned (wrapped) when the endpoint's circuit
// breaker is open and the call was not attempted.
var ErrCircuitOpen = errors.New("transport: circuit open")

// ManagedOptions tunes a ManagedClient. The zero value is usable: see
// the field comments for defaults.
type ManagedOptions struct {
	// ConnectTimeout bounds each dial (default DefaultDialTimeout).
	ConnectTimeout time.Duration
	// CallTimeout is the default per-call deadline applied to every call
	// without an earlier context deadline (default 0: context only).
	CallTimeout time.Duration
	// MaxAttempts caps tries per call, dial and send together
	// (default 4; 1 disables retry).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before allowing
	// a half-open probe (default 1s).
	BreakerCooldown time.Duration
	// Idempotent lists the RPC kinds safe to re-send after a
	// post-send transport failure (default DefaultIdempotent()).
	Idempotent map[string]bool
	// Rand supplies backoff jitter in [0,1) (default math/rand; tests
	// pin it for determinism).
	Rand func() float64
	// OnRetry, when set, observes every retry: attempt is the 1-based
	// attempt that failed, err is its failure.
	OnRetry func(kind string, attempt int, err error)
	// Configure, when set, runs on every freshly dialed Client before
	// use (install tracer/trace, etc).
	Configure func(*Client)
}

func (o *ManagedOptions) withDefaults() ManagedOptions {
	out := *o
	if out.ConnectTimeout <= 0 {
		out.ConnectTimeout = DefaultDialTimeout
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 4
	}
	if out.BaseDelay <= 0 {
		out.BaseDelay = 25 * time.Millisecond
	}
	if out.MaxDelay <= 0 {
		out.MaxDelay = time.Second
	}
	if out.BreakerThreshold == 0 {
		out.BreakerThreshold = 5
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = time.Second
	}
	if out.Idempotent == nil {
		out.Idempotent = DefaultIdempotent()
	}
	if out.Rand == nil {
		out.Rand = rand.Float64
	}
	return out
}

// DefaultIdempotent is the repo-wide idempotency table: read-only RPC
// kinds across transport, serve, gossip, domain, and blsapp surfaces.
// Everything absent — submit, submitbatch, invoke, invokebatch,
// gossipreport, subscribe/unsubscribe (connection-scoped state), and
// any future kind — is NOT retried after a post-send failure.
func DefaultIdempotent() map[string]bool {
	return map[string]bool{
		// log / monitor read path
		"head": true, "headbls": true, "info": true, "consistency": true,
		"proof": true, "proofs": true, "alerts": true, "pull": true,
		"servestats": true,
		// domain read path
		"status": true, "history": true,
		// witness read/exchange path: gossip_heads, pollinate, and cosign
		// are ingest-style merges — re-delivering the same heads is a
		// no-op by construction (the witness keeps its frontier maximum).
		"witness_info": true, "gossip_heads": true, "pollinate": true,
		"cosign": true,
	}
}

// Breaker is a per-endpoint circuit breaker:
// Closed (normal) → Open after BreakerThreshold consecutive failures
// (calls fail fast with ErrCircuitOpen, shedding load from a dead
// endpoint) → HalfOpen after the cooldown (exactly one probe call is
// allowed through) → Closed on probe success, back to Open on failure.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openUntil time.Time
	probing   bool
}

// NewBreaker creates a breaker; threshold < 0 disables it (always
// allows).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// State reports the breaker state as a string ("closed", "open",
// "half-open") for health surfaces.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold || b.threshold < 0 {
		return "closed"
	}
	if time.Now().Before(b.openUntil) {
		return "open"
	}
	return "half-open"
}

// Allow reports whether a call may proceed. In half-open state only one
// caller at a time gets true; the rest fail fast until the probe
// resolves.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.threshold < 0 || b.failures < b.threshold {
		return true
	}
	if time.Now().Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful call and closes the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
}

// Failure records a failed call; at the threshold the circuit opens for
// the cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	if b.threshold >= 0 && b.failures >= b.threshold {
		b.openUntil = time.Now().Add(b.cooldown)
	}
}

// ManagedClient is a self-healing client for one endpoint. Safe for
// concurrent use. Connections are dialed lazily and replaced whenever a
// call fails at the transport layer.
type ManagedClient struct {
	addr string
	opts ManagedOptions
	brk  *Breaker

	mu       sync.Mutex
	conn     *Client
	isClosed bool

	statsMu  sync.Mutex
	dials    uint64
	retries  uint64
	rejected uint64 // calls shed by the open breaker
}

// DialManaged creates a managed client for addr. No connection is made
// until the first call, so construction never fails — a down endpoint
// costs its callers a retried error, not a startup crash.
func DialManaged(addr string, opts ManagedOptions) *ManagedClient {
	o := opts.withDefaults()
	return &ManagedClient{
		addr: addr,
		opts: o,
		brk:  NewBreaker(o.BreakerThreshold, o.BreakerCooldown),
	}
}

// Addr returns the endpoint address.
func (m *ManagedClient) Addr() string { return m.addr }

// Breaker exposes the endpoint's circuit breaker (for health surfaces).
func (m *ManagedClient) Breaker() *Breaker { return m.brk }

// Stats reports lifetime dial, retry, and breaker-rejection counts.
func (m *ManagedClient) Stats() (dials, retries, rejected uint64) {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return m.dials, m.retries, m.rejected
}

// Close closes the current connection and marks the client closed;
// subsequent calls fail.
func (m *ManagedClient) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.isClosed = true
	if m.conn != nil {
		err := m.conn.Close()
		m.conn = nil
		return err
	}
	return nil
}

// getConn returns the live connection, dialing if needed.
func (m *ManagedClient) getConn(ctx context.Context) (*Client, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.isClosed {
		return nil, errors.New("transport: managed client closed")
	}
	if m.conn != nil {
		return m.conn, nil
	}
	timeout := m.opts.ConnectTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		return nil, context.DeadlineExceeded
	}
	c, err := DialTimeout(m.addr, timeout)
	if err != nil {
		return nil, err
	}
	if m.opts.CallTimeout > 0 {
		c.SetTimeout(m.opts.CallTimeout)
	}
	if m.opts.Configure != nil {
		m.opts.Configure(c)
	}
	m.conn = c
	m.statsMu.Lock()
	m.dials++
	m.statsMu.Unlock()
	return c, nil
}

// dropConn discards c if it is still the current connection. Called
// after a transport-level failure: the connection may be mid-frame and
// cannot be reused.
func (m *ManagedClient) dropConn(c *Client) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn == c {
		m.conn.Close()
		m.conn = nil
	}
}

// backoff sleeps for the attempt's full-jitter delay (delay drawn
// uniformly from [0, min(MaxDelay, BaseDelay·2^attempt)]), honoring ctx
// cancellation.
func (m *ManagedClient) backoff(ctx context.Context, attempt int) error {
	ceil := m.opts.BaseDelay << uint(attempt)
	if ceil > m.opts.MaxDelay || ceil <= 0 {
		ceil = m.opts.MaxDelay
	}
	d := time.Duration(m.opts.Rand() * float64(ceil))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Call invokes kind with retry/backoff/breaker (background context).
func (m *ManagedClient) Call(kind string, in, out any) error {
	return m.CallCtx(context.Background(), kind, in, out)
}

// CallCtx invokes kind under ctx. Retry policy:
//   - breaker open → fail fast with ErrCircuitOpen (no attempt);
//   - dial failure → retryable for ANY kind (nothing was sent);
//   - server-answered error (ErrRemote) → returned as-is, never
//     retried, breaker counts it a success (the endpoint is healthy);
//   - post-send transport failure → connection dropped; retried only if
//     kind is in the idempotency table.
func (m *ManagedClient) CallCtx(ctx context.Context, kind string, in, out any) error {
	var lastErr error
	for attempt := 0; attempt < m.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			m.statsMu.Lock()
			m.retries++
			m.statsMu.Unlock()
			if err := m.backoff(ctx, attempt-1); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !m.brk.Allow() {
			m.statsMu.Lock()
			m.rejected++
			m.statsMu.Unlock()
			return fmt.Errorf("%w: %s", ErrCircuitOpen, m.addr)
		}
		c, err := m.getConn(ctx)
		if err != nil {
			m.brk.Failure()
			lastErr = err
			if m.clientClosed() {
				return err
			}
			m.onRetry(kind, attempt+1, err)
			continue // dial failure: nothing sent, any kind may retry
		}
		err = c.CallCtx(ctx, kind, in, out)
		if err == nil {
			m.brk.Success()
			return nil
		}
		var remote *ErrRemote
		if errors.As(err, &remote) {
			// The server answered: the RPC ran and failed. Healthy
			// endpoint, unhealthy request — don't retry, don't trip the
			// breaker.
			m.brk.Success()
			return err
		}
		// Transport failure after (possibly partial) send: the
		// connection is unusable and the server may or may not have
		// executed the request.
		m.dropConn(c)
		m.brk.Failure()
		lastErr = err
		if !m.opts.Idempotent[kind] {
			return fmt.Errorf("transport: %s not retried (non-idempotent): %w", kind, err)
		}
		m.onRetry(kind, attempt+1, err)
	}
	return fmt.Errorf("transport: %s: %d attempts exhausted: %w", kind, m.opts.MaxAttempts, lastErr)
}

func (m *ManagedClient) onRetry(kind string, attempt int, err error) {
	if m.opts.OnRetry != nil {
		m.opts.OnRetry(kind, attempt, err)
	}
}

func (m *ManagedClient) clientClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.isClosed
}
