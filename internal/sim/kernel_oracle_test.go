package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The 4-ary min-heap kernel the event wheel replaced, kept as a test
// oracle: every event in one heap ordered by (time, schedule sequence).
// Its firing order is the order the wheel must reproduce exactly.

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	cb   Callback
	recv any
	arg  any
	n    uint64
}

func refLess(a, b *refEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

type refKernel struct {
	now    Time
	seq    uint64
	events []refEvent
	fired  uint64
}

func (k *refKernel) Now() Time            { return k.now }
func (k *refKernel) Fired() uint64        { return k.fired }
func (k *refKernel) Pending() int         { return len(k.events) }
func (k *refKernel) Reset(_ int64)        { k.now, k.seq, k.fired = 0, 0, 0 }
func (k *refKernel) At(t Time, fn func()) { k.schedule(t, refEvent{fn: fn}) }

func (k *refKernel) AtCall(t Time, cb Callback, recv, arg any, n uint64) {
	k.schedule(t, refEvent{cb: cb, recv: recv, arg: arg, n: n})
}

func (k *refKernel) schedule(t Time, e refEvent) {
	if t < k.now {
		panic(fmt.Sprintf("ref: scheduling event at %d, now is %d", t, k.now))
	}
	k.seq++
	e.at, e.seq = t, k.seq
	h := append(k.events, refEvent{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !refLess(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.events = h
}

func (k *refKernel) pop() refEvent {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
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
			for j := c + 1; j < c+4 && j < n; j++ {
				if refLess(&h[j], &h[best]) {
					best = j
				}
			}
			if !refLess(&h[best], &last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	return top
}

func (k *refKernel) TryAdvance(t Time) bool {
	if len(k.events) > 0 && k.events[0].at <= t {
		return false
	}
	k.now = t
	k.fired++
	return true
}

func (k *refKernel) Step() bool {
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

// kernelUnderTest is the surface the oracle test drives on both kernels.
type kernelUnderTest interface {
	Now() Time
	Fired() uint64
	Pending() int
	Reset(seed int64)
	At(t Time, fn func())
	AtCall(t Time, cb Callback, recv, arg any, n uint64)
	TryAdvance(t Time) bool
	Step() bool
}

// churn drives one kernel through a seeded random schedule and records
// every firing as (cycle, event id), plus every TryAdvance outcome. Each
// firing event draws from the churn's own stream, so two kernels that fire
// in the same order make the same draws and schedule the same events; the
// first divergence in order changes every later record.
type churn struct {
	k      kernelUnderTest
	rng    *rand.Rand
	nextID uint64
	budget int
	log    []uint64
	// ties are recently scheduled far cycles; near events aim at them so
	// that far and near events share a cycle.
	ties []Time
	// far marks the ids scheduled a wheel or more ahead.
	far []bool
}

// churnCB is the AtCall form of a churn event; n is the event id.
func churnCB(recv, _ any, n uint64) { recv.(*churn).fire(n) }

func (c *churn) schedule(delta uint64) {
	id := c.nextID
	c.nextID++
	t := c.k.Now() + Time(delta)
	c.far = append(c.far, delta >= wheelSize)
	if delta >= wheelSize {
		c.ties = append(c.ties, t)
		if len(c.ties) > 8 {
			c.ties = c.ties[1:]
		}
	}
	if c.rng.Intn(2) == 0 {
		c.k.At(t, func() { c.fire(id) })
	} else {
		c.k.AtCall(t, churnCB, c, nil, id)
	}
}

// delta draws a schedule distance: mostly near, a third far (up to three
// wheel revolutions), sometimes zero, and sometimes exactly onto a pending
// far event's cycle once that cycle has entered the window.
func (c *churn) delta() uint64 {
	now := c.k.Now()
	switch r := c.rng.Intn(10); {
	case r == 0:
		return 0
	case r <= 2:
		for _, t := range c.ties {
			if t >= now && t-now < wheelSize {
				return uint64(t - now)
			}
		}
		return uint64(c.rng.Intn(8))
	case r <= 5:
		return uint64(c.rng.Intn(3 * wheelSize))
	default:
		return uint64(c.rng.Intn(16))
	}
}

func (c *churn) fire(id uint64) {
	c.log = append(c.log, uint64(c.k.Now()), id)
	if c.budget > 0 {
		kids := c.rng.Intn(3)
		if c.budget < 64 {
			kids = c.rng.Intn(2)
		}
		for i := 0; i < kids && c.budget > 0; i++ {
			c.budget--
			c.schedule(c.delta())
		}
	}
	if c.rng.Intn(4) == 0 {
		// An event tail: try to stand in for the next event inline.
		ok := c.k.TryAdvance(c.k.Now() + Time(c.rng.Intn(4)))
		c.log = append(c.log, ^uint64(0), uint64(c.k.Now()), b2u(ok))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// round seeds a burst of events and runs the kernel dry.
func (c *churn) round(seed int64, budget int) {
	c.rng = rand.New(rand.NewSource(seed))
	c.budget = budget
	c.ties = c.ties[:0]
	c.far = c.far[:0]
	c.nextID = 0
	for i := 0; i < 16; i++ {
		c.schedule(c.delta())
	}
	for c.k.Step() {
	}
	c.log = append(c.log, ^uint64(1), c.k.Fired(), uint64(c.k.Now()), uint64(c.k.Pending()))
}

// TestKernelMatchesOracle: across seeds, and across Reset on one kernel,
// the wheel fires exactly the events the reference heap fires, at the same
// cycles, in the same order, with the same TryAdvance outcomes and Fired
// counts.
func TestKernelMatchesOracle(t *testing.T) {
	got := &churn{k: New(1)}
	want := &churn{k: &refKernel{}}
	ties := 0
	for round := int64(0); round < 40; round++ {
		seed := 1000 + round
		for _, c := range []*churn{got, want} {
			if round > 0 {
				c.k.Reset(seed)
			}
			c.log = c.log[:0]
			c.round(seed, 2000)
		}
		if got.k.Fired() != want.k.Fired() {
			t.Fatalf("seed %d: Fired = %d, want %d", seed, got.k.Fired(), want.k.Fired())
		}
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				lo := max(0, i-6)
				t.Fatalf("seed %d: record %d diverges\n got  %v\n want %v",
					seed, i, got.log[lo:min(len(got.log), i+6)], want.log[lo:min(len(want.log), i+6)])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d records, want %d", seed, len(got.log), len(want.log))
		}
		ties += want.farNearTies()
	}
	t.Logf("%d cycles fired both a far and a near event", ties)
	// The schedule must keep exercising the far-before-near rule.
	if ties < 100 {
		t.Fatalf("only %d cycles fired both a far and a near event", ties)
	}
}

// farNearTies counts the cycles in c.log at which both a far and a near
// event fired.
func (c *churn) farNearTies() int {
	ties := 0
	var cycle uint64
	var sawFar, sawNear, counted bool
	for i := 0; i < len(c.log); {
		switch c.log[i] {
		case ^uint64(0):
			i += 3
			continue
		case ^uint64(1):
			i += 4
			continue
		}
		at, id := c.log[i], c.log[i+1]
		i += 2
		if at != cycle {
			cycle, sawFar, sawNear, counted = at, false, false, false
		}
		if c.far[id] {
			sawFar = true
		} else {
			sawNear = true
		}
		if sawFar && sawNear && !counted {
			ties++
			counted = true
		}
	}
	return ties
}
