package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Tracing from outside the layers: the load generator times its own
// calls into each layer's public functions and records the socket waits
// of its connections. Spans stay in memory and are written out at exit.

var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// span is one timed interval of one op.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the op's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace collects the spans of one op. It is used by the one goroutine
// running the op; a nil *opTrace records nothing.
type opTrace struct {
	id    int64
	spans []span
	open  []int
}

func (t *opTrace) begin(name string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: t.id, ID: len(t.spans), Parent: t.parent(), Start: nowNS()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *opTrace) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = nowNS()
}

// leaf records a finished interval under the innermost open span.
func (t *opTrace) leaf(name string, start, end int64) {
	t.spans = append(t.spans, span{Name: name, Op: t.id, ID: len(t.spans), Parent: t.parent(), Start: start, End: end})
}

func (t *opTrace) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// The load generator has at most two client goroutines. Each owns a slot
// holding the trace of the op it is running; a connection belongs to the
// slot that was current when it was dialed.
var (
	slots    [2]atomic.Pointer[opTrace]
	dialSlot atomic.Int32
	connsMu  sync.Mutex
	conns    []*tracedConn
)

// tracedConn times every blocking read (the socket wait) and counts the
// frames and bytes the client exchanges.
type tracedConn struct {
	net.Conn
	slot          *atomic.Pointer[opTrace]
	writes, bytes atomic.Int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t := c.slot.Load()
	if t == nil {
		n, err := c.Conn.Read(p)
		c.bytes.Add(int64(n))
		return n, err
	}
	s := nowNS()
	n, err := c.Conn.Read(p)
	t.leaf("wait", s, nowNS())
	c.bytes.Add(int64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1) // one Write per transport frame
	c.bytes.Add(int64(n))
	return n, err
}

// installDialHook wraps every connection the transport layer dials from
// here on.
func installDialHook() {
	transport.SetDialHook(func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		tc := &tracedConn{Conn: conn, slot: &slots[dialSlot.Load()]}
		connsMu.Lock()
		conns = append(conns, tc)
		connsMu.Unlock()
		return tc, nil
	})
}

// connTotals sums frames written and bytes moved over every wrapped
// connection.
func connTotals() (writes, bytes int64) {
	connsMu.Lock()
	defer connsMu.Unlock()
	for _, c := range conns {
		writes += c.writes.Load()
		bytes += c.bytes.Load()
	}
	return writes, bytes
}

// spanStats aggregates the traced ops: per span name (qualified by its
// parent's name for socket waits), the summed duration and self time.
type spanStats struct {
	ops         int
	opTotal     int64 // summed root durations
	total, self map[string]int64
	count       map[string]int
}

// key names a span for aggregation. A socket wait is named after the call
// it happened in, because that tells whose side of the wire it waited on.
func key(sp []span, s *span) string {
	if s.Name == "wait" && s.Parent >= 0 {
		return sp[s.Parent].Name + "/wait"
	}
	return s.Name
}

func aggregate(traces []*opTrace) *spanStats {
	st := &spanStats{total: map[string]int64{}, self: map[string]int64{}, count: map[string]int{}}
	for _, t := range traces {
		st.ops++
		child := make([]int64, len(t.spans))
		for i := range t.spans {
			if p := t.spans[i].Parent; p >= 0 {
				child[p] += t.spans[i].End - t.spans[i].Start
			}
		}
		for i := range t.spans {
			s := &t.spans[i]
			d := s.End - s.Start
			if s.Parent < 0 {
				st.opTotal += d
			}
			k := key(t.spans, s)
			st.total[k] += d
			st.self[k] += d - child[i]
			st.count[k]++
		}
	}
	return st
}

// perOpUS is a summed span quantity as microseconds per traced op.
func (st *spanStats) perOpUS(v int64) float64 {
	if st.ops == 0 {
		return 0
	}
	return float64(v) / float64(st.ops) / 1e3
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, traces []*opTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range traces {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
