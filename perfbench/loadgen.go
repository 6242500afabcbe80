package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// arrivals returns the due times of a Poisson arrival process at rps
// requests per second over d: seeded exponential inter-arrival gaps.
func arrivals(seed uint64, rps float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0xa11))
	var due []time.Duration
	at := 0.0
	for {
		at += -math.Log(1-rng.Float64()) / rps
		t := time.Duration(at * float64(time.Second))
		if t >= d {
			return due
		}
		due = append(due, t)
	}
}

// spinWindow is how long before a due time a sender stops sleeping and
// spins: the runtime's sleeps can overshoot by up to a millisecond (the
// poller's timeout granularity), which would otherwise show as generator
// lateness in every request's latency.
const spinWindow = 2 * time.Millisecond

// sent is the timing of one open-loop request.
type sent struct {
	due, send, done time.Time
	err             error
}

// late is how long after its due time the request went out.
func (s sent) late() time.Duration { return s.send.Sub(s.due) }

// latency counts from the due time, so a stall that delays later requests
// is charged to them too (no coordinated omission).
func (s sent) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop sends request i at due[i] after it starts, from conns senders
// that each wait for their reply: at most conns requests are in flight, and
// a request due while every sender is busy goes out late. send must be safe
// for concurrent use; each i is passed exactly once.
func openLoop(due []time.Duration, conns int, send func(i int) error) []sent {
	out := make([]sent, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at) - spinWindow)
				for time.Now().Before(at) {
					runtime.Gosched()
				}
				s := sent{due: at, send: time.Now()}
				s.err = send(i)
				s.done = time.Now()
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
