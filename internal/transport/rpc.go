package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// Request is the client->server envelope.
type Request struct {
	ID   uint64          `json:"id"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Response is the server->client envelope.
type Response struct {
	ID    uint64          `json:"id"`
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Body  json.RawMessage `json:"body,omitempty"`
}

// Handler processes one request body and returns a response body.
type Handler func(body json.RawMessage) (any, error)

// HandlerCtx is a Handler that additionally receives the request
// context. When the frame arrived with a trace header, the context
// carries the obsv.TraceContext — handlers propagate it to downstream
// RPCs (CallCtx) and context-ful slog calls.
type HandlerCtx func(ctx context.Context, body json.RawMessage) (any, error)

// Server dispatches framed JSON requests to registered handlers.
// All exported methods are safe for concurrent use.
type Server struct {
	mu           sync.RWMutex
	handlers     map[string]HandlerCtx
	pushHandlers map[string]PushHandler
	noBatch      map[string]bool
	ln           net.Listener
	wg           sync.WaitGroup
	closed       chan struct{}
	conns        map[net.Conn]struct{}

	obs *serverObs // nil until Instrument; set before Serve

	// flight records dispatch failures (with the request's trace id, so
	// a flight dump links straight to /traces); errLimit keeps an error
	// storm from wiping the ring. Both are nil-safe.
	flight   atomic.Pointer[obsv.FlightRecorder]
	errLimit *obsv.FlightLimiter
}

// serverObs holds the server's telemetry instruments (per-kind request
// counts, error counts and latency, byte counters, batch sizes) plus
// the tracer that turns incoming trace headers into server spans.
type serverObs struct {
	tracer    *obsv.Tracer
	reqs      *obsv.CounterVec
	errs      *obsv.CounterVec
	lat       *obsv.HistogramVec
	rx        *obsv.Counter
	tx        *obsv.Counter
	batchSize *obsv.Histogram
	pushes    *obsv.Counter
	pushErrs  *obsv.Counter
	badFrames *obsv.Counter
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{
		handlers:     make(map[string]HandlerCtx),
		pushHandlers: make(map[string]PushHandler),
		noBatch:      make(map[string]bool),
		closed:       make(chan struct{}),
		conns:        make(map[net.Conn]struct{}),
		errLimit:     obsv.NewFlightLimiter(100 * time.Millisecond),
	}
}

// SetFlightRecorder installs the daemon's flight recorder on the server.
// Call any time (typically right after Instrument); nil uninstalls.
func (s *Server) SetFlightRecorder(fr *obsv.FlightRecorder) {
	s.flight.Store(fr)
}

// Instrument registers the server's RPC metrics on reg and, when tracer
// is non-nil, opens one server span per request of a sampled trace.
// Call before Serve; the hot path reads the instruments without locks.
func (s *Server) Instrument(reg *obsv.Registry, tracer *obsv.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = &serverObs{
		tracer:    tracer,
		reqs:      reg.CounterVec("rpc_requests_total", "RPC requests dispatched, by kind", "kind"),
		errs:      reg.CounterVec("rpc_errors_total", "RPC requests answered with an error, by kind", "kind"),
		lat:       reg.HistogramVec("rpc_latency_seconds", "RPC handler latency, by kind", "kind", nil),
		rx:        reg.Counter("rpc_rx_bytes_total", "request frame bytes received"),
		tx:        reg.Counter("rpc_tx_bytes_total", "response frame bytes sent"),
		batchSize: reg.HistogramBuckets("rpc_batch_calls", "sub-requests per _batch frame", obsv.SizeBuckets),
		pushes:    reg.Counter("rpc_pushed_frames_total", "server-initiated push frames written"),
		pushErrs:  reg.Counter("rpc_push_errors_total", "push frame writes that failed"),
		badFrames: reg.Counter("rpc_bad_frames_total", "connections dropped on malformed frames"),
	}
}

func (s *Server) observability() *serverObs {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obs
}

// Handle registers a handler for a request kind.
func (s *Server) Handle(kind string, h Handler) {
	s.HandleCtx(kind, func(_ context.Context, body json.RawMessage) (any, error) { return h(body) })
}

// HandleCtx registers a context-aware handler for a request kind.
func (s *Server) HandleCtx(kind string, h HandlerCtx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[kind] = h
}

// HandleNoBatch registers a handler whose kind is refused inside _batch
// frames. Use it for application-level batch kinds that carry their own
// request lists (e.g. "invokebatch"): nesting those in a transport batch
// would multiply the per-frame work cap by itself.
func (s *Server) HandleNoBatch(kind string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[kind] = func(_ context.Context, body json.RawMessage) (any, error) { return h(body) }
	s.noBatch[kind] = true
}

func (s *Server) isNoBatch(kind string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.noBatch[kind]
}

// ListenerWrap intercepts every listener handed to Serve. Installed
// process-wide by SetListenerWrap.
type ListenerWrap func(net.Listener) net.Listener

var listenerWrap atomic.Pointer[ListenerWrap]

// SetListenerWrap installs a process-wide inbound listener interceptor
// — the chaos plane's entry point for injecting accept- and read-side
// faults (daemons install it only under -debug-hooks; it pairs with
// SetDialHook for the outbound direction). nil restores plain serving.
// Affects listeners passed to Serve after the call.
func SetListenerWrap(w ListenerWrap) {
	if w == nil {
		listenerWrap.Store(nil)
		return
	}
	listenerWrap.Store(&w)
}

// Serve starts accepting connections on ln until Close. It returns
// immediately; connection goroutines run in the background.
func (s *Server) Serve(ln net.Listener) {
	if w := listenerWrap.Load(); w != nil {
		ln = (*w)(ln)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-s.closed:
					return
				default:
				}
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
}

// ListenAndServe listens on a fresh loopback TCP port and serves on it,
// returning the bound address.
func (s *Server) ListenAndServe() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, closes every active connection, and waits
// for in-flight handler goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ActiveConns reports the number of currently-open client connections.
// Leak-check tests compare it before and after a client workload: a
// client that closes its transport.Clients leaves it at zero.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		conn.Close()
		return
	default:
	}
	s.conns[conn] = struct{}{}
	obs := s.obs
	s.mu.Unlock()
	pusher := newPusher(conn)
	pusher.obs = obs
	defer func() {
		close(pusher.done)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		header, frame, err := ReadFrameHeader(conn)
		if err != nil {
			return
		}
		if obs != nil {
			obs.rx.Add(uint64(4 + len(header) + len(frame)))
		}
		var req Request
		if err := json.Unmarshal(frame, &req); err != nil {
			// Protocol violation: drop the connection.
			if obs != nil {
				obs.badFrames.Inc()
			}
			return
		}
		ctx := context.Background()
		if len(header) > 0 {
			// A malformed trace header is ignored, never fatal: the
			// header section is observability metadata, not protocol.
			if tc, err := obsv.DecodeTraceContext(header); err == nil {
				ctx = obsv.ContextWithTrace(ctx, tc)
			}
		}
		resp := s.dispatchConn(ctx, &req, pusher)
		out, err := json.Marshal(resp)
		if err != nil {
			return
		}
		if obs != nil {
			obs.tx.Add(uint64(4 + len(out)))
		}
		if err := pusher.writeFrame(out); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *Request) *Response {
	return s.dispatchConn(context.Background(), req, nil)
}

// dispatchConn routes one request. p is the requesting connection's
// Pusher (nil when dispatching without a connection); handlers registered
// via HandlePush receive it.
func (s *Server) dispatchConn(ctx context.Context, req *Request, p *Pusher) *Response {
	obs := s.observability()
	var start time.Time
	var span *obsv.Span
	if obs != nil {
		start = time.Now()
		if obs.tracer != nil {
			ctx, span = obs.tracer.Start(ctx, "rpc."+req.Kind)
		}
	}
	resp := s.route(ctx, req, p)
	if obs != nil {
		obs.reqs.With(req.Kind).Inc()
		// Exemplar-aware latency: sampled requests pin their trace id to
		// the bucket they land in, so an SLO breach can name traces.
		obs.lat.With(req.Kind).ObserveExemplar(time.Since(start).Seconds(), obsv.TraceFrom(ctx))
		if !resp.OK {
			obs.errs.With(req.Kind).Inc()
		}
	}
	if !resp.OK && s.errLimit.Allow() {
		s.flight.Load().Record("rpc", "error", req.Kind+": "+resp.Error, 0, obsv.TraceFrom(ctx))
	}
	if span != nil {
		if resp.OK {
			span.End(nil)
		} else {
			span.End(errors.New(resp.Error))
		}
	}
	return resp
}

// route performs the actual handler lookup and invocation.
func (s *Server) route(ctx context.Context, req *Request, p *Pusher) *Response {
	if req.Kind == BatchKind {
		return s.dispatchBatch(ctx, req)
	}
	if ph, ok := s.pushHandler(req.Kind); ok {
		body, err := ph(req.Body, p)
		if err != nil {
			return &Response{ID: req.ID, OK: false, Error: err.Error()}
		}
		enc, err := json.Marshal(body)
		if err != nil {
			return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("encoding response: %v", err)}
		}
		return &Response{ID: req.ID, OK: true, Body: enc}
	}
	s.mu.RLock()
	h, ok := s.handlers[req.Kind]
	s.mu.RUnlock()
	if !ok {
		return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
	body, err := h(ctx, req.Body)
	if err != nil {
		return &Response{ID: req.ID, OK: false, Error: err.Error()}
	}
	enc, err := json.Marshal(body)
	if err != nil {
		return &Response{ID: req.ID, OK: false, Error: fmt.Sprintf("encoding response: %v", err)}
	}
	return &Response{ID: req.ID, OK: true, Body: enc}
}

// Client is a synchronous RPC client over a single connection.
// Safe for concurrent use; calls are serialized on the connection.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	nextID  uint64
	trace   obsv.TraceContext // connection-level trace (SetTrace)
	tracer  *obsv.Tracer      // client-side spans (SetTracer)
	timeout time.Duration     // default per-call deadline (SetTimeout)
}

// DefaultDialTimeout bounds connection establishment for Dial. A dial
// that cannot complete a TCP handshake in this long is talking to a
// black hole; blocking the caller indefinitely (the kernel default is
// minutes) turns one dead peer into a stuck daemon.
const DefaultDialTimeout = 10 * time.Second

// DialHook intercepts outbound dials. addr is the target; timeout is the
// connect budget. Installed process-wide by SetDialHook.
type DialHook func(addr string, timeout time.Duration) (net.Conn, error)

var dialHook atomic.Pointer[DialHook]

// SetDialHook installs a process-wide outbound dial interceptor — the
// chaos plane's entry point for injecting dial-time faults and wrapping
// connections (daemons install it only under -debug-hooks). nil
// restores the default dialer. Affects Dial/DialTimeout/DialContext,
// not NewClient.
func SetDialHook(h DialHook) {
	if h == nil {
		dialHook.Store(nil)
		return
	}
	dialHook.Store(&h)
}

func dialConn(addr string, timeout time.Duration) (net.Conn, error) {
	if h := dialHook.Load(); h != nil {
		return (*h)(addr, timeout)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// Dial connects to a server address, bounded by DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout connects to a server address with an explicit connect
// timeout (0 means DefaultDialTimeout).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	conn, err := dialConn(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &Client{conn: conn}, nil
}

// NewClient wraps an existing connection.
func NewClient(conn net.Conn) *Client { return &Client{conn: conn} }

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetTrace pins a connection-level trace context: every subsequent Call
// made without its own context trace sends a child span of tc in the
// frame header. Only enable toward peers that understand frame headers
// (a pre-header peer closes the connection on the first traced frame);
// within one deployment all daemons upgrade together.
func (c *Client) SetTrace(tc obsv.TraceContext) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = tc
}

// SetTracer records one client-side span per traced call.
func (c *Client) SetTracer(t *obsv.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// SetTimeout installs a default per-call deadline: every Call/CallCtx
// without an earlier context deadline bounds its round trip to d. Zero
// disables (context deadlines still apply). A call that hits the
// deadline leaves the connection mid-frame and therefore unusable —
// the error is terminal for this Client, which is exactly what the
// managed layer (DialManaged) wants: it drops the connection and
// redials.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// ErrRemote wraps an error string returned by the server.
type ErrRemote struct{ Msg string }

func (e *ErrRemote) Error() string { return "transport: remote error: " + e.Msg }

// Call sends a request of the given kind and decodes the response body
// into out (which may be nil to discard).
func (c *Client) Call(kind string, in any, out any) error {
	return c.CallCtx(context.Background(), kind, in, out)
}

// CallCtx is Call with trace propagation: when ctx (or the connection's
// SetTrace default) carries a sampled trace, the request frame carries
// a child trace context in its header and, with SetTracer, a client
// span is recorded.
func (c *Client) CallCtx(ctx context.Context, kind string, in any, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("transport: encoding request: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tc := obsv.TraceFrom(ctx)
	if !tc.Valid() {
		tc = c.trace
	}
	var header []byte
	var span *obsv.Span
	if tc.Valid() && tc.Sampled() {
		child := tc.Child()
		header = child.Encode()
		if c.tracer != nil {
			span = c.tracer.StartRemote(child, "call."+kind)
		}
	}
	c.nextID++
	req := Request{ID: c.nextID, Kind: kind, Body: body}
	frame, err := json.Marshal(&req)
	if err != nil {
		return fmt.Errorf("transport: encoding envelope: %w", err)
	}
	// Per-call deadline: the earlier of the context's deadline and the
	// connection default. The deadline covers the whole round trip; on
	// expiry the read/write fails with a timeout and the connection is
	// desynchronized (a late response frame would answer the wrong call),
	// so callers must treat a timeout as fatal for this Client.
	deadline, hasDeadline := ctx.Deadline()
	if c.timeout > 0 {
		if d := time.Now().Add(c.timeout); !hasDeadline || d.Before(deadline) {
			deadline, hasDeadline = d, true
		}
	}
	if hasDeadline {
		if err := c.conn.SetDeadline(deadline); err != nil {
			return fmt.Errorf("transport: setting deadline: %w", err)
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	err = c.roundTrip(header, frame, req.ID, out)
	span.End(err)
	return err
}

// roundTrip writes one framed request and reads its response. Caller
// holds c.mu.
func (c *Client) roundTrip(header, frame []byte, id uint64, out any) error {
	if err := WriteFrameHeader(c.conn, header, frame); err != nil {
		return err
	}
	respFrame, err := ReadFrame(c.conn)
	if err != nil {
		return fmt.Errorf("transport: reading response: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(respFrame, &resp); err != nil {
		return fmt.Errorf("transport: decoding response: %w", err)
	}
	if resp.ID != id {
		return errors.New("transport: response ID mismatch")
	}
	if !resp.OK {
		return &ErrRemote{Msg: resp.Error}
	}
	if out != nil {
		if err := json.Unmarshal(resp.Body, out); err != nil {
			return fmt.Errorf("transport: decoding response body: %w", err)
		}
	}
	return nil
}
