package serve

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/gossip"
)

// AutoSubscriber keeps a push subscription alive across connection
// failures: when the underlying Subscriber's read loop exits, it
// redials with jittered exponential backoff, resumes with the previous
// connection's floors (SetResumeFloors), and re-subscribes. Consumers
// therefore observe one continuous per-source head sequence — no
// duplicates at reconnect boundaries, no regressions — no matter how
// often the transport dies underneath.
type AutoSubscriber struct {
	opts AutoOptions

	mu         sync.Mutex
	cur        *Subscriber
	floors     map[string]uint64
	reconnects uint64
	closed     bool
	wake       chan struct{} // closed by Close to cut backoff sleeps short
	done       chan struct{} // closed when the run loop exits
}

// AutoOptions configures an AutoSubscriber.
type AutoOptions struct {
	// From is the self-identifying subscription label.
	From string
	// Dial opens a connection to the serving tier. Required.
	Dial func() (net.Conn, error)
	// VerifyHead/OnHeads are installed on every underlying Subscriber.
	VerifyHead func(*gossip.GossipHead) error
	OnHeads    func(from string, heads []gossip.GossipHead)
	// OnState, when set, observes lifecycle events: "connected" (err
	// nil), "disconnected" (the connection's terminal error), and
	// "retry" (a failed dial or subscribe).
	OnState func(event string, err error)
	// BaseDelay/MaxDelay bound the reconnect backoff (defaults 100ms/5s).
	BaseDelay, MaxDelay time.Duration
	// Rand supplies backoff jitter in [0,1) (default math/rand).
	Rand func() float64
}

// NewAutoSubscriber starts the reconnect loop. Close releases it.
func NewAutoSubscriber(opts AutoOptions) (*AutoSubscriber, error) {
	if opts.Dial == nil {
		return nil, errors.New("serve: AutoSubscriber requires Dial")
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 100 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 5 * time.Second
	}
	if opts.Rand == nil {
		opts.Rand = rand.Float64
	}
	a := &AutoSubscriber{
		opts:   opts,
		floors: make(map[string]uint64),
		wake:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go a.run()
	return a, nil
}

// Close stops the reconnect loop and closes any live subscription.
func (a *AutoSubscriber) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	close(a.wake)
	cur := a.cur
	a.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	<-a.done
	return nil
}

// Reconnects reports how many times the subscription has been
// re-established after its initial connect.
func (a *AutoSubscriber) Reconnects() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconnects
}

// Floors snapshots the resume floors (highest delivered size per
// source across all connections so far).
func (a *AutoSubscriber) Floors() map[string]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]uint64, len(a.floors))
	for k, v := range a.floors {
		out[k] = v
	}
	return out
}

// Call performs a request/response RPC on the current connection; it
// fails (rather than blocking) while disconnected, since callers like
// poll loops have their own retry cadence.
func (a *AutoSubscriber) Call(kind string, in, out any) error {
	a.mu.Lock()
	cur := a.cur
	closed := a.closed
	a.mu.Unlock()
	if closed {
		return errors.New("serve: auto subscriber closed")
	}
	if cur == nil {
		return errors.New("serve: auto subscriber disconnected")
	}
	return cur.Call(kind, in, out)
}

// Heads returns the latest accepted head per source from the current
// connection (empty while disconnected).
func (a *AutoSubscriber) Heads() []gossip.GossipHead {
	a.mu.Lock()
	cur := a.cur
	a.mu.Unlock()
	if cur == nil {
		return nil
	}
	return cur.Heads()
}

// Stats snapshots the current connection's counters (zero while
// disconnected; counters reset per connection).
func (a *AutoSubscriber) Stats() SubStats {
	a.mu.Lock()
	cur := a.cur
	a.mu.Unlock()
	if cur == nil {
		return SubStats{}
	}
	return cur.Stats()
}

func (a *AutoSubscriber) notify(event string, err error) {
	if a.opts.OnState != nil {
		a.opts.OnState(event, err)
	}
}

func (a *AutoSubscriber) run() {
	defer close(a.done)
	attempt := 0
	connectedBefore := false
	for {
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			return
		}
		a.mu.Unlock()

		sub, err := a.connectOnce()
		if err != nil {
			a.notify("retry", err)
			if !a.sleep(attempt) {
				return
			}
			attempt++
			continue
		}
		attempt = 0
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			sub.Close()
			return
		}
		a.cur = sub
		if connectedBefore {
			a.reconnects++
		}
		connectedBefore = true
		a.mu.Unlock()
		a.notify("connected", nil)

		<-sub.Done()
		a.notify("disconnected", sub.Err())

		// Fold this connection's progress into the floors so the next
		// connection resumes past everything already delivered.
		sizes := sub.LastSizes()
		a.mu.Lock()
		for k, v := range sizes {
			if v > a.floors[k] {
				a.floors[k] = v
			}
		}
		a.cur = nil
		a.mu.Unlock()
	}
}

// connectOnce dials, builds a resumed Subscriber, and subscribes.
func (a *AutoSubscriber) connectOnce() (*Subscriber, error) {
	conn, err := a.opts.Dial()
	if err != nil {
		return nil, err
	}
	sub := NewSubscriber(conn)
	sub.VerifyHead = a.opts.VerifyHead
	sub.OnHeads = a.opts.OnHeads
	sub.SetResumeFloors(a.Floors())
	if err := sub.Subscribe(a.opts.From); err != nil {
		sub.Close()
		return nil, err
	}
	return sub, nil
}

// sleep waits the attempt's full-jitter backoff; false means Close cut
// it short.
func (a *AutoSubscriber) sleep(attempt int) bool {
	ceil := a.opts.BaseDelay << uint(attempt)
	if ceil > a.opts.MaxDelay || ceil <= 0 {
		ceil = a.opts.MaxDelay
	}
	d := time.Duration(a.opts.Rand() * float64(ceil))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-a.wake:
		return false
	case <-t.C:
		return true
	}
}
