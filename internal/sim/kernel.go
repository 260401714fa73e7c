// Package sim provides the deterministic discrete-event simulation kernel
// on which the whole machine model runs.
//
// Every hardware component (bus, cache controller, CPU, memory controller)
// advances by scheduling closures at future cycle counts. Events at the same
// cycle fire in schedule order, so a run is a pure function of the
// configuration and the seed. The kernel is deliberately single-threaded:
// determinism matters more than host parallelism for an architectural
// simulator, and it is what makes the multithreaded-workload results
// reproducible (the paper injects seeded random latency perturbations for the
// same reason, §5.3).
//
// The event queue is a typed 4-ary min-heap over one reusable backing slice:
// no container/heap interface boxing, no per-event allocation. Hot schedule
// sites avoid closure allocation too, via AtCall/AfterCall, which store a
// pre-bound (callback, receiver, argument) triple directly in the event.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is the simulated clock in processor cycles (1 GHz in the paper's
// Table 2, so one unit is one nanosecond of simulated time).
type Time uint64

// Callback is a pre-bound event handler: recv is the scheduling component,
// arg an optional payload, n an optional scalar (a sequence number, a
// receiver index — whatever the site needs to avoid a closure).
type Callback func(recv, arg any, n uint64)

// event is a handler scheduled to fire at a cycle. seq breaks ties so that
// same-cycle events fire in the order they were scheduled. Exactly one of
// fn and cb is set.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	cb   Callback
	recv any
	arg  any
	n    uint64
}

// eventLess orders events by (time, schedule sequence).
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Kernel is the event loop. The zero value is not usable; construct with New.
type Kernel struct {
	now    Time
	seq    uint64
	events []event // 4-ary min-heap ordered by eventLess
	seed   int64
	rng    *rand.Rand
	fired  uint64
}

// New returns a kernel whose pseudo-random stream is derived from seed.
func New(seed int64) *Kernel {
	return &Kernel{
		seed:   seed,
		events: make([]event, 0, 64),
	}
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far (useful as a progress
// and runaway-simulation metric). Inline advances (TryAdvance) count: they
// stand in for exactly one scheduled event.
func (k *Kernel) Fired() uint64 { return k.fired }

// Rand returns the kernel's seeded random stream. All model randomness
// (arbitration jitter, post-release delays) must come from here so runs are
// reproducible. The stream is created on first use: seeding a math/rand
// source walks a 607-entry lag table and costs microseconds, which dominates
// machine construction for configurations that never draw (litmus sweeps
// build tens of thousands of machines with all jitter disabled).
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.seed))
	}
	return k.rng
}

// Reset rewinds the kernel to the state New(seed) constructs, keeping the
// event slice's backing array. The queue must already be empty: resetting
// with events pending is always a model bug (a machine being recycled
// mid-run), so it panics rather than silently dropping work.
func (k *Kernel) Reset(seed int64) {
	if len(k.events) != 0 {
		panic(fmt.Sprintf("sim: Reset with %d events pending", len(k.events)))
	}
	k.now, k.seq, k.fired = 0, 0, 0
	k.seed = seed
	k.rng = nil
}

// push inserts e, sifting up through 4-ary parents.
func (k *Kernel) push(e event) {
	h := append(k.events, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.events = h
}

// pop removes and returns the minimum event.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn/recv/arg references
	h = h[:n]
	k.events = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			best := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(&h[j], &h[best]) {
					best = j
				}
			}
			if !eventLess(&h[best], &last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	return top
}

// schedule validates t and pushes e with the next tie-break sequence.
func (k *Kernel) schedule(t Time, e event) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d, now is %d", t, k.now))
	}
	k.seq++
	e.at = t
	e.seq = k.seq
	k.push(e)
}

// At schedules fn to run at absolute cycle t. Scheduling in the past panics:
// it is always a model bug.
func (k *Kernel) At(t Time, fn func()) {
	k.schedule(t, event{fn: fn})
}

// After schedules fn d cycles from now.
func (k *Kernel) After(d uint64, fn func()) { k.At(k.now+Time(d), fn) }

// AtCall schedules the pre-bound callback cb(recv, arg, n) at absolute cycle
// t. It allocates nothing beyond amortized heap growth: pointer receivers and
// arguments convert to `any` without boxing, so hot schedule sites (CPU issue
// ticks, bus grants, message deliveries) stay allocation-free.
func (k *Kernel) AtCall(t Time, cb Callback, recv, arg any, n uint64) {
	k.schedule(t, event{cb: cb, recv: recv, arg: arg, n: n})
}

// AfterCall schedules cb(recv, arg, n) d cycles from now.
func (k *Kernel) AfterCall(d uint64, cb Callback, recv, arg any, n uint64) {
	k.AtCall(k.now+Time(d), cb, recv, arg, n)
}

// TryAdvance moves the clock directly to t — charging one fired event, as if
// an event scheduled at t had just popped — provided no queued event would
// fire at or before t. It returns false (and does nothing) otherwise.
//
// This is the cache-hit fast path's "calendar skip": an op that would be the
// very next event needn't round-trip through the queue. Callers must invoke
// it only at an event tail (nothing left to run in the current event), since
// it conceptually ends the current event and begins the next.
func (k *Kernel) TryAdvance(t Time) bool {
	if t < k.now {
		panic(fmt.Sprintf("sim: advancing to %d, now is %d", t, k.now))
	}
	if len(k.events) > 0 && k.events[0].at <= t {
		return false
	}
	k.now = t
	k.fired++
	return true
}

// Pending reports how many events are queued.
func (k *Kernel) Pending() int { return len(k.events) }

// Step executes the single next event, advancing the clock to its cycle.
// It returns false when no events remain.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.pop()
	k.now = e.at
	k.fired++
	if e.fn != nil {
		e.fn()
	} else {
		e.cb(e.recv, e.arg, e.n)
	}
	return true
}

// Run executes events until the queue drains.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events until done reports true (checked after each
// event) or the queue drains. It returns true if done was satisfied.
func (k *Kernel) RunUntil(done func() bool) bool {
	for {
		if done() {
			return true
		}
		if !k.Step() {
			return done()
		}
	}
}

// RunLimit executes at most limit events; it returns false if the limit was
// hit with events still pending (the caller treats that as a hung model,
// e.g. an undetected deadlock).
func (k *Kernel) RunLimit(limit uint64) bool {
	for i := uint64(0); i < limit; i++ {
		if !k.Step() {
			return true
		}
	}
	return len(k.events) == 0
}
