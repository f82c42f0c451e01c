package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// traceWindow is the length of the alternating untraced and traced
// windows of a traced run; the two windows' op rates give the overhead
// of tracing within one process, under the same daemon state.
const traceWindow = 500 * time.Millisecond

// opFunc runs and verifies one op for client w; i numbers the op. A
// non-nil error counts the op as failed.
type opFunc func(w int, i int64, t *opTrace) error

type loopResult struct {
	lat                 []time.Duration // successful ops only
	done                []time.Duration // completion offsets of successful ops
	attempted, failed   int64
	elapsed             time.Duration
	tracedOps, plainOps int64
	tracedDur, plainDur time.Duration
	traces              []*opTrace
}

// runLoop drives clients closed loops, each sending its next op only after
// the previous one completed, for dur or until maxOps ops have started.
// Ops are numbered from firstOp.
func runLoop(clients int, dur time.Duration, firstOp, maxOps int64, traced bool, op opFunc) *loopResult {
	var (
		mu     sync.Mutex
		res    = &loopResult{}
		next   atomic.Int64
		wg     sync.WaitGroup
		logged atomic.Int32
	)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lat, done []time.Duration
			var traces []*opTrace
			var attempted, failed, tracedOps, plainOps int64
			for {
				since := time.Since(start)
				if since >= dur {
					break
				}
				n := next.Add(1) - 1
				if maxOps > 0 && n >= maxOps {
					break
				}
				i := firstOp + n
				var t *opTrace
				if traced && int(since/traceWindow)%2 == 1 {
					t = &opTrace{id: i}
					slots[w].Store(t)
					tracedOps++
				} else {
					plainOps++
				}
				t0 := time.Now()
				t.begin("op")
				err := op(w, i, t)
				t.end()
				d := time.Since(t0)
				slots[w].Store(nil)
				attempted++
				if err != nil {
					failed++
					if logged.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
					}
					continue
				}
				lat = append(lat, d)
				done = append(done, time.Since(start))
				if t != nil {
					traces = append(traces, t)
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.done = append(res.done, done...)
			res.traces = append(res.traces, traces...)
			res.attempted += attempted
			res.failed += failed
			res.tracedOps += tracedOps
			res.plainOps += plainOps
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	// Split the elapsed time into the untraced (even) and traced (odd)
	// windows the ops started in.
	for k := 0; time.Duration(k)*traceWindow < res.elapsed; k++ {
		d := min(traceWindow, res.elapsed-time.Duration(k)*traceWindow)
		if k%2 == 1 {
			res.tracedDur += d
		} else {
			res.plainDur += d
		}
	}
	return res
}

// merge adds another trial's results to r.
func (r *loopResult) merge(o *loopResult) {
	r.lat = append(r.lat, o.lat...)
	r.traces = append(r.traces, o.traces...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.elapsed += o.elapsed
	r.tracedOps += o.tracedOps
	r.plainOps += o.plainOps
	r.tracedDur += o.tracedDur
	r.plainDur += o.plainDur
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func sortedMS(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// tailOf returns the highest of the standard percentiles that has at least
// ten samples beyond it, and its value; with fewer than 20 samples, the
// median.
func tailOf(ms []float64) (pct, value float64) {
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(ms))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(ms, pct/100)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// windowRates is the verified-op completion rate in each whole second of
// the timed phase; the document keeps it to show drift within a run.
func windowRates(done []time.Duration, elapsed time.Duration) []float64 {
	rates := make([]float64, int(elapsed/time.Second))
	for _, d := range done {
		if k := int(d / time.Second); k < len(rates) {
			rates[k]++
		}
	}
	return rates
}
