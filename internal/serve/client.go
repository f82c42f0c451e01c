package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/gossip"
	"repro/internal/transport"
)

// Subscriber is the client half of the push channel: it owns one
// connection, multiplexes ordinary request/response calls with
// server-initiated push frames, and enforces per-source head
// monotonicity on everything pushed at it. A verify hook (typically
// wrapping gossip.VerifyCosignedHead or aolog.VerifyHeadBLS) decides
// whether each pushed head is accepted; rejected and out-of-order heads
// are counted and dropped, never surfaced.
type Subscriber struct {
	conn net.Conn

	// VerifyHead, when set, must return nil for a pushed head to be
	// accepted. Set it before Subscribe; it is called from the read loop.
	VerifyHead func(*gossip.GossipHead) error

	// OnHeads, when set, is called from the read loop with each accepted
	// batch (after per-source filtering). Set it before Subscribe.
	OnHeads func(from string, heads []gossip.GossipHead)

	wmu sync.Mutex // serializes request writes

	mu       sync.Mutex
	nextID   uint64
	pending  map[uint64]chan *transport.Response
	lastSize map[string]uint64   // per-source monotonicity guard
	floor    map[string]uint64   // resume floors (SetResumeFloors)
	heads    []gossip.GossipHead // latest accepted head per source
	byKey    map[string]int      // source key -> index in heads
	stats    SubStats
	err      error
	closed   bool
	done     chan struct{}
}

// SubStats counts what the read loop saw.
type SubStats struct {
	Received   uint64 // heads accepted
	Dropped    uint64 // heads rejected by VerifyHead
	OutOfOrder uint64 // heads dropped by the monotonicity guard
	Duplicate  uint64 // heads at or below a resume floor (reconnect replay)
	BadFrames  uint64 // undecodable or malformed frames/sub-requests
}

// NewSubscriber wraps an established connection and starts its read
// loop. The caller must not read from conn afterwards.
func NewSubscriber(conn net.Conn) *Subscriber {
	s := &Subscriber{
		conn:     conn,
		pending:  make(map[uint64]chan *transport.Response),
		lastSize: make(map[string]uint64),
		byKey:    make(map[string]int),
		done:     make(chan struct{}),
	}
	go s.readLoop()
	return s
}

// Close tears the connection down; pending calls fail.
func (s *Subscriber) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.err == nil {
		s.err = errors.New("serve: subscriber closed")
	}
	s.mu.Unlock()
	return s.conn.Close()
}

// Done closes when the read loop has exited (connection dead or Close).
func (s *Subscriber) Done() <-chan struct{} { return s.done }

// Err reports why the read loop stopped (nil while it is running).
func (s *Subscriber) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats snapshots the subscriber's counters.
func (s *Subscriber) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetResumeFloors seeds the duplicate guard for a resumed subscription:
// a head whose size is at or below its source's floor has already been
// delivered on a previous connection and is dropped silently (counted
// in Duplicate, not OutOfOrder — replay at the resume boundary is
// expected, regression is not). Call before Subscribe; the map is
// copied. Combined with the monotonicity guard this is the reconnect
// safety argument: a resumed subscriber can neither re-deliver a head
// it already delivered (floor) nor accept one older than it has seen
// (lastSize), so heads observed across any number of reconnects form a
// single non-repeating, non-decreasing sequence per source.
func (s *Subscriber) SetResumeFloors(floors map[string]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.floor = make(map[string]uint64, len(floors))
	for k, v := range floors {
		s.floor[k] = v
		// The floor also primes the monotonicity guard, so a pushed head
		// below the floor counts as a duplicate, never as progress.
		if v > s.lastSize[k] {
			s.lastSize[k] = v
		}
	}
}

// LastSizes snapshots the highest accepted size per source — the floors
// to resume from after this connection dies.
func (s *Subscriber) LastSizes() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.lastSize))
	for k, v := range s.lastSize {
		out[k] = v
	}
	return out
}

// Heads returns the latest accepted head per source.
func (s *Subscriber) Heads() []gossip.GossipHead {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]gossip.GossipHead, len(s.heads))
	copy(out, s.heads)
	return out
}

// Call performs an ordinary request/response RPC over the subscribed
// connection (usable concurrently with pushes).
func (s *Subscriber) Call(kind string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("serve: encoding %s request: %w", kind, err)
	}
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.nextID++
	id := s.nextID
	ch := make(chan *transport.Response, 1)
	s.pending[id] = ch
	s.mu.Unlock()

	raw, err := json.Marshal(&transport.Request{ID: id, Kind: kind, Body: body})
	if err == nil {
		s.wmu.Lock()
		err = transport.WriteFrame(s.conn, raw)
		s.wmu.Unlock()
	}
	if err != nil {
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
		return err
	}
	select {
	case resp := <-ch:
		if !resp.OK {
			return &transport.ErrRemote{Msg: resp.Error}
		}
		if out != nil {
			if err := json.Unmarshal(resp.Body, out); err != nil {
				return fmt.Errorf("serve: decoding %s response: %w", kind, err)
			}
		}
		return nil
	case <-s.done:
		return s.Err()
	}
}

// Subscribe registers for pushes and primes the local head set from the
// ack. From is a self-identifying label for the server's logs.
func (s *Subscriber) Subscribe(from string) error {
	var resp SubscribeResponse
	if err := s.Call(KindSubscribe, &SubscribeRequest{From: from}, &resp); err != nil {
		return err
	}
	s.ingest("", resp.Heads, false)
	return nil
}

// Unsubscribe deregisters from pushes (the connection stays usable).
func (s *Subscriber) Unsubscribe() error {
	return s.Call(KindUnsubscribe, struct{}{}, nil)
}

// readLoop demultiplexes incoming frames until the connection dies.
func (s *Subscriber) readLoop() {
	var loopErr error
	for {
		frame, err := transport.ReadFrame(s.conn)
		if err != nil {
			loopErr = err
			break
		}
		s.handleFrame(frame)
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = loopErr
	}
	s.closed = true
	pending := s.pending
	s.pending = make(map[uint64]chan *transport.Response)
	err := s.err
	s.mu.Unlock()
	for id, ch := range pending {
		ch <- &transport.Response{ID: id, OK: false, Error: err.Error()}
	}
	close(s.done)
}

// handleFrame routes one raw frame: a Response (has "ok") answers a
// pending call; a Request (has "kind") is a server push. It never
// panics on malformed input — this is the fuzz entry point.
func (s *Subscriber) handleFrame(frame []byte) {
	// Distinguish structurally: responses carry "ok", pushes carry "kind".
	var probe struct {
		OK   *bool  `json:"ok"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(frame, &probe); err != nil {
		s.countBadFrame()
		return
	}
	switch {
	case probe.OK != nil:
		var resp transport.Response
		if err := json.Unmarshal(frame, &resp); err != nil {
			s.countBadFrame()
			return
		}
		s.mu.Lock()
		ch, ok := s.pending[resp.ID]
		if ok {
			delete(s.pending, resp.ID)
		}
		s.mu.Unlock()
		if !ok {
			s.countBadFrame() // response to nothing we asked
			return
		}
		ch <- &resp
	case probe.Kind != "":
		var req transport.Request
		if err := json.Unmarshal(frame, &req); err != nil {
			s.countBadFrame()
			return
		}
		s.handlePush(&req)
	default:
		s.countBadFrame()
	}
}

// handlePush processes a server-initiated Request frame. Only _batch
// frames whose sub-requests are KindPushHeads are meaningful; anything
// else — including batches nested inside batches — is counted and
// dropped.
func (s *Subscriber) handlePush(req *transport.Request) {
	if req.Kind != transport.BatchKind {
		s.countBadFrame()
		return
	}
	var subs []transport.Request
	if err := json.Unmarshal(req.Body, &subs); err != nil {
		s.countBadFrame()
		return
	}
	if len(subs) > transport.MaxBatchCalls {
		s.countBadFrame()
		return
	}
	for i := range subs {
		if subs[i].Kind != KindPushHeads {
			s.countBadFrame() // nested batch or unknown push kind
			continue
		}
		var msg gossip.HeadsMessage
		if err := json.Unmarshal(subs[i].Body, &msg); err != nil {
			s.countBadFrame()
			continue
		}
		s.ingestPushed(msg.From, msg.Heads)
	}
}

// ingest applies verification and the per-source monotonicity guard,
// then records accepted heads and fires OnHeads. pushed distinguishes
// server pushes from subscription-ack priming: a stale primed head is a
// benign race (a push can overtake the ack on the wire) and is dropped
// silently, while a stale PUSHED head is a protocol violation and counts
// in OutOfOrder.
func (s *Subscriber) ingest(from string, heads []gossip.GossipHead, pushed bool) {
	if len(heads) == 0 {
		return
	}
	accepted := heads[:0:0]
	for i := range heads {
		gh := &heads[i]
		if s.VerifyHead != nil {
			if err := s.VerifyHead(gh); err != nil {
				s.mu.Lock()
				s.stats.Dropped++
				s.mu.Unlock()
				continue
			}
		}
		key := sourceKey(gh)
		s.mu.Lock()
		if fl, ok := s.floor[key]; ok && gh.Head.Size <= fl {
			// Already delivered before the reconnect; suppress so a
			// resumed subscription never double-delivers a head.
			s.stats.Duplicate++
			s.mu.Unlock()
			continue
		}
		if gh.Head.Size < s.lastSize[key] {
			if pushed {
				s.stats.OutOfOrder++
			}
			s.mu.Unlock()
			continue
		}
		s.lastSize[key] = gh.Head.Size
		if idx, ok := s.byKey[key]; ok {
			s.heads[idx] = *gh
		} else {
			s.byKey[key] = len(s.heads)
			s.heads = append(s.heads, *gh)
		}
		s.stats.Received++
		s.mu.Unlock()
		accepted = append(accepted, *gh)
	}
	if s.OnHeads != nil && len(accepted) > 0 {
		s.OnHeads(from, accepted)
	}
}

func (s *Subscriber) ingestPushed(from string, heads []gossip.GossipHead) {
	s.ingest(from, heads, true)
}

func (s *Subscriber) countBadFrame() {
	s.mu.Lock()
	s.stats.BadFrames++
	s.mu.Unlock()
}
