// Package sim provides the deterministic discrete-event simulation kernel
// on which the whole machine model runs.
//
// Every hardware component (bus, cache controller, CPU, memory controller)
// advances by scheduling events at future cycle counts. Events at the same
// cycle fire in schedule order, so a run is a pure function of the
// configuration and the seed. The kernel is deliberately single-threaded:
// determinism matters more than host parallelism for an architectural
// simulator, and it is what makes the multithreaded-workload results
// reproducible (the paper injects seeded random latency perturbations for the
// same reason, §5.3).
//
// The event queue is a calendar queue for the near future (Brown, "Calendar
// queues", CACM 1988): a wheel of one-cycle buckets covers the next
// wheelSize cycles, where every event of the simulated machine's hot path
// lands, and a 4-ary min-heap holds the rare events further ahead. Scheduling
// near is an O(1) FIFO append, the next event is found by scanning a 4-word
// occupancy bitmap, and the (time, schedule order) firing order stays exact
// with no comparison on the near path (see Kernel). Events live in reused
// slots, so nothing is allocated per event. Every schedule site on the hot
// path avoids closure allocation too, via AtCall/AfterCall, which store a
// pre-bound (callback, receiver, argument) triple in the slot; At/After take
// a plain closure (carried as the argument of an adapter callback) and are
// left to cold paths (NACK retries, injected deschedules) and tests.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is the simulated clock in processor cycles (1 GHz in the paper's
// Table 2, so one unit is one nanosecond of simulated time).
type Time uint64

// Callback is a pre-bound event handler: recv is the scheduling component,
// arg an optional payload, n an optional scalar (a sequence number, a
// receiver index — whatever the site needs to avoid a closure).
type Callback func(recv, arg any, n uint64)

// callFn is the Callback behind At/After: the closure travels as arg, which
// converts to `any` without allocating, so every event has one dispatch
// path.
func callFn(_, arg any, _ uint64) { arg.(func())() }

// wheelSize is the near-future window: an event less than wheelSize cycles
// ahead goes to the bucket of its cycle. The machine's schedules (bus
// latencies, memory, restart penalties) are all under 128 cycles ahead. It
// must be a power of two (bucket indexes are masked) of at least 64 (the
// occupancy bitmap is wheelSize/64 words).
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// slot is a scheduled event's handler: what fires, not when.
type slot struct {
	cb   Callback
	recv any
	arg  any
	n    uint64
}

// event is a far event: a slot with its cycle and a tie-break sequence
// number, so that far events of one cycle fire in schedule order.
type event struct {
	at  Time
	seq uint64
	slot
}

// eventLess orders events by (time, schedule sequence).
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Kernel is the event loop. The zero value is not usable; construct with New.
//
// Events less than wheelSize cycles ahead when scheduled (all of them on the
// simulated machine's hot path) go to a wheel of one-cycle buckets; the rest
// go to a 4-ary min-heap (far). Every bucket holds the events of exactly one
// cycle: a near event's cycle lies in [now, now+wheelSize) for as long as it
// is queued, so the cycle is recovered from its bucket index. Buckets are
// FIFO lists of slots in one reused slab, so near events of one cycle fire in
// schedule order. A far event fires before every near event of its cycle:
// it was scheduled at least wheelSize cycles before that cycle, a near event
// less than wheelSize cycles before it, so the far event came first. Hence
// Step fires far[0] whenever it is due no later than the first near event,
// and the firing order is exactly (time, schedule order) with no comparison
// on the near path.
type Kernel struct {
	now   Time
	fired uint64

	// slots is the slab of near events; index 0 is unused, so 0 means "no
	// slot" in next, head and tail. next links a bucket's FIFO, or the free
	// list (free is its head).
	slots []slot
	next  []uint32
	free  uint32
	near  int // near events queued
	// head and tail are each bucket's FIFO ends; occ has bit b set when
	// bucket b is non-empty.
	head, tail [wheelSize]uint32
	occ        [wheelSize / 64]uint64

	far    []event // 4-ary min-heap ordered by eventLess
	farSeq uint64

	seed int64
	// rng is kept across Reset and re-seeded on the first Rand after it;
	// seeded reports whether that has happened since the last Reset.
	rng    *rand.Rand
	seeded bool
}

// New returns a kernel whose pseudo-random stream is derived from seed.
func New(seed int64) *Kernel {
	return &Kernel{
		seed:  seed,
		slots: make([]slot, 1, 64),
		next:  make([]uint32, 1, 64),
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
	if !k.seeded {
		if k.rng == nil {
			k.rng = rand.New(rand.NewSource(k.seed))
		} else {
			k.rng.Seed(k.seed) // the stream rand.New(rand.NewSource(seed)) yields
		}
		k.seeded = true
	}
	return k.rng
}

// Reset rewinds the kernel to the state New(seed) constructs, keeping the
// slab's and the far heap's backing arrays. The queue must already be empty:
// resetting with events pending is always a model bug (a machine being
// recycled mid-run), so it panics rather than silently dropping work.
func (k *Kernel) Reset(seed int64) {
	if n := k.Pending(); n != 0 {
		panic(fmt.Sprintf("sim: Reset with %d events pending", n))
	}
	k.now, k.fired, k.farSeq = 0, 0, 0
	k.seed = seed
	k.seeded = false
}

// schedule queues cb(recv, arg, n) to fire at t.
func (k *Kernel) schedule(t Time, cb Callback, recv, arg any, n uint64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d, now is %d", t, k.now))
	}
	if t-k.now >= wheelSize {
		k.farSeq++
		k.push(event{at: t, seq: k.farSeq, slot: slot{cb, recv, arg, n}})
		return
	}
	i := k.free
	if i != 0 {
		k.free = k.next[i]
	} else {
		i = uint32(len(k.slots))
		k.slots = append(k.slots, slot{})
		k.next = append(k.next, 0)
	}
	k.slots[i] = slot{cb, recv, arg, n}
	k.next[i] = 0
	b := uint32(t) & wheelMask
	if last := k.tail[b]; last != 0 {
		k.next[last] = i
	} else {
		k.head[b] = i
		k.occ[b>>6] |= 1 << (b & 63)
	}
	k.tail[b] = i
	k.near++
}

// nextNear returns the cycle and bucket of the earliest near event, or
// false when the wheel is empty.
func (k *Kernel) nextNear() (Time, uint32, bool) {
	if k.near == 0 {
		return 0, 0, false
	}
	s := uint32(k.now) & wheelMask
	w := s >> 6
	if m := k.occ[w] >> (s & 63); m != 0 {
		d := uint32(bits.TrailingZeros64(m))
		return k.now + Time(d), s + d, true
	}
	// The rest of the window, wrapping round to the start word: its bits at
	// and above s are clear (checked above), so no mask is needed.
	for i := uint32(1); ; i++ {
		ww := (w + i) & (wheelSize/64 - 1)
		if m := k.occ[ww]; m != 0 {
			b := ww<<6 + uint32(bits.TrailingZeros64(m))
			return k.now + Time((b-s)&wheelMask), b, true
		}
	}
}

// popNear removes and returns the first event of bucket b.
func (k *Kernel) popNear(b uint32) slot {
	i := k.head[b]
	e := k.slots[i]
	k.slots[i] = slot{} // release recv/arg references
	h := k.next[i]
	k.head[b] = h
	if h == 0 {
		k.tail[b] = 0
		k.occ[b>>6] &^= 1 << (b & 63)
	}
	k.next[i] = k.free
	k.free = i
	k.near--
	return e
}

// push inserts e into the far heap, sifting up through 4-ary parents.
func (k *Kernel) push(e event) {
	h := append(k.far, event{})
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
	k.far = h
}

// pop removes and returns the minimum far event.
func (k *Kernel) pop() event {
	h := k.far
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release recv/arg references
	h = h[:n]
	k.far = h
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

// At schedules fn to run at absolute cycle t. Scheduling in the past panics:
// it is always a model bug.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, callFn, nil, fn, 0) }

// After schedules fn d cycles from now.
func (k *Kernel) After(d uint64, fn func()) { k.At(k.now+Time(d), fn) }

// AtCall schedules the pre-bound callback cb(recv, arg, n) at absolute cycle
// t. It allocates nothing beyond amortized slab growth: pointer receivers and
// arguments convert to `any` without boxing, so hot schedule sites (CPU issue
// ticks, bus grants, message deliveries) stay allocation-free.
func (k *Kernel) AtCall(t Time, cb Callback, recv, arg any, n uint64) {
	k.schedule(t, cb, recv, arg, n)
}

// AfterCall schedules cb(recv, arg, n) d cycles from now.
func (k *Kernel) AfterCall(d uint64, cb Callback, recv, arg any, n uint64) {
	k.schedule(k.now+Time(d), cb, recv, arg, n)
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
	if len(k.far) > 0 && k.far[0].at <= t {
		return false
	}
	if at, _, ok := k.nextNear(); ok && at <= t {
		return false
	}
	k.now = t
	k.fired++
	return true
}

// Pending reports how many events are queued.
func (k *Kernel) Pending() int { return k.near + len(k.far) }

// Step executes the single next event, advancing the clock to its cycle.
// It returns false when no events remain.
func (k *Kernel) Step() bool {
	var e slot
	if at, b, ok := k.nextNear(); ok && (len(k.far) == 0 || at < k.far[0].at) {
		k.now, e = at, k.popNear(b)
	} else if len(k.far) > 0 {
		// Due no later than the first near event: it fires first.
		f := k.pop()
		k.now, e = f.at, f.slot
	} else {
		return false
	}
	k.fired++
	e.cb(e.recv, e.arg, e.n)
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
	return k.Pending() == 0
}
