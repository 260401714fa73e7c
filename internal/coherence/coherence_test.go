package coherence

import (
	"fmt"
	"testing"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
)

func testConfig() Config {
	return Config{
		Cache: cache.Config{SizeBytes: 8192, Ways: 4, VictimEntries: 16},
		Bus:   bus.Config{SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2, MaxOutstanding: 120},
		L2Lat: 12, MemLat: 70, WriteBufferLines: 64,
	}
}

// recorder is the coherence tests' one completion sink. Each operation
// takes a fresh tag, from next, or from then when the test wants fn run at
// completion; the sink records the completion under its tag. The tests run
// sequentially, so they share rec.
type recorder struct {
	got []completion
	fns []func(val uint64, ok bool)
}

type completion struct {
	done, ok bool
	val      uint64
}

var rec recorder

// next returns a fresh tag.
func (r *recorder) next() uint64 { return r.then(nil) }

// then returns a fresh tag whose completion runs fn (when non-nil).
func (r *recorder) then(fn func(val uint64, ok bool)) uint64 {
	r.got = append(r.got, completion{})
	r.fns = append(r.fns, fn)
	return uint64(len(r.got) - 1)
}

func (r *recorder) sink(n, val uint64, ok bool) {
	r.got[n] = completion{done: true, ok: ok, val: val}
	if fn := r.fns[n]; fn != nil {
		fn(val, ok)
	}
}

// rig builds an n-CPU system with one engine per CPU using pol.
func rig(n int, pol core.Policy) (*sim.Kernel, *System) {
	k := sim.New(1)
	engines := make([]*core.Engine, n)
	for i := range engines {
		engines[i] = core.NewEngine(i, pol)
	}
	return k, NewSystem(k, n, testConfig(), engines)
}

// load performs a blocking load and pumps the kernel to completion.
func load(t *testing.T, k *sim.Kernel, c *Controller, a memsys.Addr) uint64 {
	t.Helper()
	n := rec.next()
	c.Load(a, false, rec.sink, n)
	if !k.RunUntil(func() bool { return rec.got[n].done }) {
		t.Fatalf("P%d load %s never completed", c.ID(), a)
	}
	return rec.got[n].val
}

// store performs a blocking store and pumps the kernel.
func store(t *testing.T, k *sim.Kernel, c *Controller, a memsys.Addr, v uint64) {
	t.Helper()
	n := rec.next()
	c.Store(a, v, rec.sink, n)
	if !k.RunUntil(func() bool { return rec.got[n].done }) {
		t.Fatalf("P%d store %s never completed", c.ID(), a)
	}
	if !rec.got[n].ok {
		t.Fatalf("P%d store %s squashed unexpectedly", c.ID(), a)
	}
}

func commit(t *testing.T, k *sim.Kernel, c *Controller) bool {
	t.Helper()
	n := rec.next()
	c.TryCommit(rec.sink, n)
	k.RunUntil(func() bool { return rec.got[n].done })
	return rec.got[n].done && rec.got[n].ok
}

func stateOf(c *Controller, a memsys.Addr) cache.State {
	if l := c.Cache().Probe(a.Line()); l != nil {
		return l.State
	}
	return cache.Invalid
}

func TestColdLoadFillsExclusiveFromMemory(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	s.Mem.WriteWord(0x1000, 42)
	if v := load(t, k, s.Ctrls[0], 0x1000); v != 42 {
		t.Fatalf("load = %d, want 42", v)
	}
	if st := stateOf(s.Ctrls[0], 0x1000); st != cache.Exclusive {
		t.Fatalf("state = %v, want E (sole copy from memory)", st)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondReaderGetsSharedOwnerToO(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	s.Mem.WriteWord(0x1000, 7)
	load(t, k, s.Ctrls[0], 0x1000)
	if v := load(t, k, s.Ctrls[1], 0x1000); v != 7 {
		t.Fatalf("second reader got %d", v)
	}
	if st := stateOf(s.Ctrls[0], 0x1000); st != cache.Owned {
		t.Fatalf("supplier state = %v, want O", st)
	}
	if st := stateOf(s.Ctrls[1], 0x1000); st != cache.Shared {
		t.Fatalf("reader state = %v, want S", st)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMissGetsModified(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	store(t, k, s.Ctrls[0], 0x2000, 99)
	if st := stateOf(s.Ctrls[0], 0x2000); st != cache.Modified {
		t.Fatalf("state = %v, want M", st)
	}
	if v := load(t, k, s.Ctrls[0], 0x2000); v != 99 {
		t.Fatalf("readback = %d", v)
	}
}

func TestCacheToCacheTransferOnWrite(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	store(t, k, s.Ctrls[0], 0x2000, 5)
	store(t, k, s.Ctrls[1], 0x2000, 6) // GetX serviced by P0, invalidating it
	if st := stateOf(s.Ctrls[0], 0x2000); st != cache.Invalid {
		t.Fatalf("old owner state = %v, want I", st)
	}
	if st := stateOf(s.Ctrls[1], 0x2000); st != cache.Modified {
		t.Fatalf("new owner state = %v, want M", st)
	}
	if v := load(t, k, s.Ctrls[0], 0x2000); v != 6 {
		t.Fatalf("P0 re-read = %d, want 6", v)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	s.Mem.WriteWord(0x3000, 1)
	load(t, k, s.Ctrls[0], 0x3000)
	load(t, k, s.Ctrls[1], 0x3000) // P0: O, P1: S
	store(t, k, s.Ctrls[1], 0x3000, 2)
	if st := stateOf(s.Ctrls[1], 0x3000); st != cache.Modified {
		t.Fatalf("upgrader state = %v, want M", st)
	}
	if st := stateOf(s.Ctrls[0], 0x3000); st != cache.Invalid {
		t.Fatalf("old owner state = %v, want I", st)
	}
	if s.Ctrls[1].Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", s.Ctrls[1].Stats().Upgrades)
	}
	if v := load(t, k, s.Ctrls[0], 0x3000); v != 2 {
		t.Fatalf("P0 re-read = %d, want 2", v)
	}
}

func TestSilentEtoMUpgrade(t *testing.T) {
	k, s := rig(1, core.Policy{EnableTLR: true})
	load(t, k, s.Ctrls[0], 0x4000) // E
	before := s.Bus.Stats().Txns[bus.Upgrade] + s.Bus.Stats().Txns[bus.GetX]
	store(t, k, s.Ctrls[0], 0x4000, 3)
	after := s.Bus.Stats().Txns[bus.Upgrade] + s.Bus.Stats().Txns[bus.GetX]
	if after != before {
		t.Fatal("E->M should be silent (no bus transaction)")
	}
	if st := stateOf(s.Ctrls[0], 0x4000); st != cache.Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestLLSCSuccess(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	var llv uint64
	fired := false
	s.Ctrls[0].LL(0x5000, rec.sink, rec.then(func(v uint64, ok bool) { llv, fired = v, true }))
	k.RunUntil(func() bool { return fired })
	if llv != 0 {
		t.Fatalf("LL = %d", llv)
	}
	scOK := uint64(99)
	fired = false
	s.Ctrls[0].SC(0x5000, 1, rec.sink, rec.then(func(v uint64, ok bool) { scOK, fired = v, true }))
	k.RunUntil(func() bool { return fired })
	if scOK != 1 {
		t.Fatal("SC should succeed with intact link")
	}
	if v := load(t, k, s.Ctrls[0], 0x5000); v != 1 {
		t.Fatalf("value after SC = %d", v)
	}
}

func TestLLSCFailsAfterInvalidation(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	fired := false
	s.Ctrls[0].LL(0x5000, rec.sink, rec.then(func(uint64, bool) { fired = true }))
	k.RunUntil(func() bool { return fired })
	// P1 steals the line before P0's SC.
	store(t, k, s.Ctrls[1], 0x5000, 77)
	var res uint64 = 99
	fired = false
	s.Ctrls[0].SC(0x5000, 1, rec.sink, rec.then(func(v uint64, ok bool) { res, fired = v, true }))
	k.RunUntil(func() bool { return fired })
	if res != 0 {
		t.Fatal("SC must fail after external invalidation")
	}
	if v := load(t, k, s.Ctrls[0], 0x5000); v != 77 {
		t.Fatalf("value = %d, want 77 (SC must not have written)", v)
	}
}

func TestSwapAtomic(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	s.Mem.WriteWord(0x6000, 10)
	var old uint64
	fired := false
	s.Ctrls[0].Swap(0x6000, 20, rec.sink, rec.then(func(v uint64, ok bool) { old, fired = v, true }))
	k.RunUntil(func() bool { return fired })
	if old != 10 {
		t.Fatalf("swap old = %d, want 10", old)
	}
	if v := load(t, k, s.Ctrls[1], 0x6000); v != 20 {
		t.Fatalf("post-swap value = %d, want 20", v)
	}
}

func TestCASSemantics(t *testing.T) {
	k, s := rig(1, core.Policy{EnableTLR: true})
	s.Mem.WriteWord(0x6000, 5)
	var seen uint64
	fired := false
	s.Ctrls[0].CAS(0x6000, 4, 9, rec.sink, rec.then(func(v uint64, ok bool) { seen, fired = v, true }))
	k.RunUntil(func() bool { return fired })
	if seen != 5 {
		t.Fatalf("CAS observed %d, want 5", seen)
	}
	if v := load(t, k, s.Ctrls[0], 0x6000); v != 5 {
		t.Fatal("failed CAS must not write")
	}
	fired = false
	s.Ctrls[0].CAS(0x6000, 5, 9, rec.sink, rec.then(func(v uint64, ok bool) { fired = true }))
	k.RunUntil(func() bool { return fired })
	if v := load(t, k, s.Ctrls[0], 0x6000); v != 9 {
		t.Fatal("successful CAS must write")
	}
}

func TestFetchAdd(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	for i := 0; i < 5; i++ {
		fired := false
		s.Ctrls[i%2].FetchAdd(0x7000, 3, rec.sink, rec.then(func(uint64, bool) { fired = true }))
		k.RunUntil(func() bool { return fired })
	}
	if v := load(t, k, s.Ctrls[0], 0x7000); v != 15 {
		t.Fatalf("counter = %d, want 15", v)
	}
}

func TestWritebackOnEvictionReachesMemory(t *testing.T) {
	k := sim.New(1)
	cfg := testConfig()
	cfg.Cache = cache.Config{SizeBytes: 256, Ways: 2, VictimEntries: 2} // 2 sets
	engines := []*core.Engine{core.NewEngine(0, core.Policy{EnableTLR: true})}
	s := NewSystem(k, 1, cfg, engines)
	c := s.Ctrls[0]
	// Write 4 lines mapping to set 0 (stride 2 lines): evicts dirty lines.
	for i := 0; i < 4; i++ {
		store(t, k, c, memsys.Addr(i*2*memsys.LineBytes), uint64(100+i))
	}
	k.RunUntil(func() bool { return s.Quiescent() })
	for i := 0; i < 4; i++ {
		a := memsys.Addr(i * 2 * memsys.LineBytes)
		if v := s.ArchWord(a); v != uint64(100+i) {
			t.Fatalf("line %d arch value = %d, want %d", i, v, 100+i)
		}
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("expected dirty evictions to write back")
	}
	// Reload the first line: must come back with the written value.
	if v := load(t, k, c, 0); v != 100 {
		t.Fatalf("reload = %d, want 100", v)
	}
}

func TestSpinSubscriberWakesOnInvalidation(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	load(t, k, s.Ctrls[0], 0x8000) // cache it
	woken := false
	s.Ctrls[0].SubscribeLine(0x8000, func(any, any, uint64) { woken = true }, nil, 0)
	store(t, k, s.Ctrls[1], 0x8000, 1)
	if !woken {
		t.Fatal("subscriber not notified on invalidation")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		k, s := rig(4, core.Policy{EnableTLR: true})
		for i, c := range s.Ctrls {
			a := memsys.Addr(0x9000)
			fired := false
			c.FetchAdd(a+memsys.Addr(i*8), uint64(i), rec.sink, rec.then(func(uint64, bool) { fired = true }))
			k.RunUntil(func() bool { return fired })
		}
		k.RunUntil(func() bool { return s.Quiescent() })
		return k.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d cycles", a, b)
	}
}

func TestArchWordSeesOwnerCopy(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	store(t, k, s.Ctrls[0], 0xa000, 123)
	// Memory is stale; ArchWord must read the M copy.
	if v := s.ArchWord(0xa000); v != 123 {
		t.Fatalf("ArchWord = %d, want 123", v)
	}
	if s.Mem.ReadWord(0xa000) == 123 {
		t.Skip("memory unexpectedly fresh; writeback happened early")
	}
}

// TestWritebackRaceSupply: a dirty line evicted (write-back in flight) must
// still be supplied by its last owner, and a GetX that consumes it cancels
// the stale write-back so memory cannot be corrupted by ordering races.
func TestWritebackRaceSupply(t *testing.T) {
	k := sim.New(1)
	cfg := testConfig()
	cfg.Cache = cache.Config{SizeBytes: 256, Ways: 2, VictimEntries: 2} // 2 sets
	engines := []*core.Engine{core.NewEngine(0, core.Policy{EnableTLR: true}), core.NewEngine(1, core.Policy{EnableTLR: true})}
	s := NewSystem(k, 2, cfg, engines)
	p0, p1 := s.Ctrls[0], s.Ctrls[1]

	// P0 dirties line 0, then evicts it by filling its set.
	store(t, k, p0, 0x000, 111)
	fired := false
	p0.Store(0x100, 1, rec.sink, rec.next()) // same set (2 sets, stride 128)
	p0.Store(0x200, 2, rec.sink, rec.then(func(uint64, bool) { fired = true }))
	// While the write-back may still be in flight, P1 takes the line
	// exclusively and writes a NEWER value.
	var done bool
	p1.Store(0x000, 222, rec.sink, rec.then(func(uint64, bool) { done = true }))
	k.RunUntil(func() bool { return fired && done && s.Quiescent() })

	if v := s.ArchWord(0x000); v != 222 {
		t.Fatalf("line = %d, want the new owner's 222 (stale write-back leaked?)", v)
	}
	// Force P1's copy out so memory must be consulted.
	store(t, k, p1, 0x100, 3)
	store(t, k, p1, 0x200, 4)
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(0x000); v != 222 {
		t.Fatalf("after writeback round-trip: %d, want 222", v)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestMaskedLineStopsAnsweringSnoops: after deferring an ownership request
// the holder becomes a lame-duck supplier — it keeps the data for the
// deferred requester but no longer claims owner-of-record.
func TestMaskedLineMasksOwnership(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	begin(p0)
	specStore(t, p0, lineA, 1)
	k.RunUntil(s.Quiescent)

	begin(p1)
	specStore(t, p1, lineA, 2) // deferred by P0 (earlier stamp wins)
	k.RunUntil(func() bool { return p0.Engine().Stats().Deferrals == 1 })

	if p0.SnoopOwner(lineA) {
		t.Fatal("masked holder must not claim owner-of-record")
	}
	if !p1.SnoopOwner(lineA) {
		t.Fatal("the deferred requester is the pending owner-of-record")
	}
	l := p0.Cache().Probe(lineA)
	if l == nil || !l.Masked {
		t.Fatal("P0's line should be masked")
	}
	// Commit hands the line over and unmasks by invalidation.
	d0, _ := asyncCommit(p0)
	k.RunUntil(func() bool { return *d0 })
	k.RunUntil(s.Quiescent)
	if p0.Cache().Probe(lineA) != nil {
		t.Fatal("served deferred GetX must invalidate the old copy")
	}
}

// ---------------------------------------------------------------------------
// TSO store buffer
// ---------------------------------------------------------------------------

func sbRig(n, entries int) (*sim.Kernel, *System) {
	k := sim.New(1)
	cfg := testConfig()
	cfg.StoreBufferEntries = entries
	engines := make([]*core.Engine, n)
	for i := range engines {
		engines[i] = core.NewEngine(i, core.Policy{EnableTLR: true})
	}
	return k, NewSystem(k, n, cfg, engines)
}

// TestStoreBufferHidesStoreLatency: a buffered store completes in the same
// event; the drain happens in the background.
func TestStoreBufferHidesStoreLatency(t *testing.T) {
	k, s := sbRig(1, 8)
	p0 := s.Ctrls[0]
	fired := false
	p0.Store(0x1000, 7, rec.sink, rec.then(func(uint64, bool) { fired = true }))
	if !fired {
		t.Fatal("buffered store should complete immediately")
	}
	if k.Now() != 0 {
		t.Fatal("no simulated time should pass at retire")
	}
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(0x1000); v != 7 {
		t.Fatalf("drained value = %d, want 7", v)
	}
}

// TestStoreBufferForwardsOwnStores (TSO load→store forwarding).
func TestStoreBufferForwarding(t *testing.T) {
	k, s := sbRig(1, 8)
	p0 := s.Ctrls[0]
	p0.Store(0x1000, 7, rec.sink, rec.next())
	var got uint64
	fired := false
	p0.Load(0x1000, false, rec.sink, rec.then(func(v uint64, ok bool) { got, fired = v, true }))
	if !fired || got != 7 {
		t.Fatalf("forwarded load = %d fired=%v, want 7 immediately", got, fired)
	}
	k.RunUntil(s.Quiescent)
}

// TestStoreBufferDrainsInOrder: two stores to different lines become
// globally visible in program order.
func TestStoreBufferDrainsInOrder(t *testing.T) {
	k, s := sbRig(2, 8)
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	p0.Store(0x1000, 1, rec.sink, rec.next())
	p0.Store(0x2000, 1, rec.sink, rec.next())
	// Poll from P1: whenever the second store is visible, the first must be.
	violated := false
	var poll func()
	poll = func() {
		fired := false
		p1.Load(0x2000, false, rec.sink, rec.then(func(v2 uint64, ok bool) {
			p1.Load(0x1000, false, rec.sink, rec.then(func(v1 uint64, ok2 bool) {
				if v2 == 1 && v1 != 1 {
					violated = true
				}
				fired = true
			}))
		}))
		_ = fired
		if !s.Quiescent() {
			k.After(7, poll)
		}
	}
	k.After(3, poll)
	k.RunUntil(s.Quiescent)
	if violated {
		t.Fatal("store order inverted: second store visible before first")
	}
	if s.ArchWord(0x1000) != 1 || s.ArchWord(0x2000) != 1 {
		t.Fatal("stores lost")
	}
}

// TestAtomicsFenceStoreBuffer: an atomic after buffered stores observes
// them drained (its own read sees the final architectural state).
func TestAtomicsFenceStoreBuffer(t *testing.T) {
	k, s := sbRig(1, 8)
	p0 := s.Ctrls[0]
	p0.Store(0x1000, 5, rec.sink, rec.next())
	var old uint64
	fired := false
	p0.FetchAdd(0x1000, 1, rec.sink, rec.then(func(v uint64, ok bool) { old, fired = v, true }))
	k.RunUntil(func() bool { return fired })
	if old != 5 {
		t.Fatalf("atomic observed %d, want the drained 5", old)
	}
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(0x1000); v != 6 {
		t.Fatalf("final = %d, want 6", v)
	}
}

// TestStoreBufferFullStalls: the buffer bounds outstanding stores.
func TestStoreBufferFullStalls(t *testing.T) {
	k, s := sbRig(1, 2)
	p0 := s.Ctrls[0]
	completed := 0
	for i := 0; i < 4; i++ {
		p0.Store(memsys.Addr(0x1000+i*64), uint64(i), rec.sink, rec.then(func(uint64, bool) { completed++ }))
	}
	if completed >= 4 {
		t.Fatalf("all %d stores retired instantly into a 2-entry buffer", completed)
	}
	k.RunUntil(s.Quiescent)
	if completed != 4 {
		t.Fatalf("completed = %d, want 4 after drains", completed)
	}
	for i := 0; i < 4; i++ {
		if v := s.ArchWord(memsys.Addr(0x1000 + i*64)); v != uint64(i) {
			t.Fatalf("store %d lost", i)
		}
	}
}

// Warm store-buffer cycles allocate nothing: buffered stores, their drain
// (each one a miss), stores stalled on a full buffer and a fence waiting
// for the drain reuse the entry array and both wait queues.
func TestStoreBufferCycleAllocFree(t *testing.T) {
	k, s := sbRig(2, 2)
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	fenced := 0
	fence := func(any, any, uint64) { fenced++ }
	stored := 0
	sink, n := rec.sink, rec.then(func(uint64, bool) { stored++ })
	cycle := func() {
		// Four stores into two entries: the last two wait for space.
		for i := 0; i < 4; i++ {
			p0.Store(memsys.Addr(0x1000+i*64), uint64(i), sink, n)
		}
		p0.Fence(fence, nil, 0)
		k.Run()
		// P1 takes the lines, so the next cycle's drains miss again.
		for i := 0; i < 4; i++ {
			p1.Store(memsys.Addr(0x1000+i*64), uint64(i), sink, n)
		}
		k.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("warm store-buffer cycle allocates %.1f objects, want 0", allocs)
	}
	// AllocsPerRun runs the cycle once more than asked, to warm up.
	if fenced != 52 || stored != 52*8 {
		t.Fatalf("%d fences and %d stores completed, want 52 and %d", fenced, stored, 52*8)
	}
	if p0.Stats().Misses < 52*4 {
		t.Fatalf("P0 took %d misses, want one per drained store", p0.Stats().Misses)
	}
}

// Fences, and the SCs and atomics that fence internally, wait in one FIFO:
// once the buffer drains they run in the order they were issued. (Here each
// completes as it runs: the atomic hits a writable line and the SC has no
// link.)
func TestFencesRunInIssueOrder(t *testing.T) {
	k, s := sbRig(1, 4)
	p0 := s.Ctrls[0]
	p0.Store(0x2000, 0, rec.sink, rec.next())
	k.RunUntil(s.Quiescent)
	var order []string
	fence := func(any, any, uint64) { order = append(order, "fence") }
	p0.Store(0x1000, 1, rec.sink, rec.next())
	p0.Fence(fence, nil, 0)
	p0.FetchAdd(0x2000, 1, rec.sink, rec.then(func(uint64, bool) { order = append(order, "fetchadd") }))
	p0.SC(0x3000, 1, rec.sink, rec.then(func(uint64, bool) { order = append(order, "sc") }))
	p0.Fence(fence, nil, 0)
	if len(order) != 0 {
		t.Fatalf("%v ran before the buffered store drained", order)
	}
	k.RunUntil(s.Quiescent)
	if got := fmt.Sprint(order); got != "[fence fetchadd sc fence]" {
		t.Fatalf("fence order %s, want [fence fetchadd sc fence]", got)
	}
}

// TestWBPendingSupplyHonoursSharers is the directed form of the mp3d
// violation: an Owned line with two Shared copies is evicted, and a GetS
// ordered before the write-back is served from the write-back buffer. The
// other Shared copies are still live, so the fill must install Shared:
// Exclusive would leave a writable copy beside them. One outstanding bus
// transaction keeps the reader's GetS queued ahead of the write-back until
// the owner's eviction has happened.
func TestWBPendingSupplyHonoursSharers(t *testing.T) {
	k := sim.New(1)
	cfg := testConfig()
	cfg.Cache = cache.Config{SizeBytes: 256, Ways: 2} // 2 sets, no victim cache
	cfg.Bus.MaxOutstanding = 1
	engines := make([]*core.Engine, 4)
	for i := range engines {
		engines[i] = core.NewEngine(i, core.Policy{EnableTLR: true})
	}
	s := NewSystem(k, 4, cfg, engines)
	p0, p3 := s.Ctrls[0], s.Ctrls[3]
	const line = memsys.Addr(0x000)

	store(t, k, p0, line, 7)
	load(t, k, s.Ctrls[1], line)
	load(t, k, s.Ctrls[2], line)
	store(t, k, p0, 0x100, 1) // same set (2 sets, stride 128): fills the other way
	k.RunUntil(s.Quiescent)
	if st := stateOf(p0, line); st != cache.Owned {
		t.Fatalf("P0 state = %v, want O", st)
	}

	// P0's next miss in the set evicts the Owned line; P3's GetS queues
	// behind that miss and ahead of the write-back.
	evicting, reading := rec.next(), rec.next()
	p0.Store(0x200, 2, rec.sink, evicting)
	p3.Load(line, false, rec.sink, reading)
	overlapped := false
	if !k.RunUntil(func() bool {
		overlapped = overlapped || p0.wbPendingFor(line) != nil && p3.mshrFor(line) != nil
		return rec.got[evicting].done && rec.got[reading].done
	}) {
		t.Fatal("eviction or read never completed")
	}
	k.RunUntil(s.Quiescent)
	if !overlapped {
		t.Fatal("the read never overlapped the pending write-back")
	}
	if v := rec.got[reading].val; v != 7 {
		t.Fatalf("P3 read %d, want 7", v)
	}
	if st := stateOf(p3, line); st != cache.Shared {
		t.Fatalf("P3 state = %v, want S (two other Shared copies are live)", st)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfSupplyHonoursSharers pins the self-supply path: P0 re-reads its
// own evicted Owned line, and the re-read orders before the write-back, so
// P0 is the supplier of record for its own request and serves it from its
// write-back buffer. P1 still holds a Shared copy, so P0's fill must
// install Shared: Exclusive would leave a writable copy beside it. The
// cache is 2-way with 2 sets and no victim cache, and one outstanding bus
// transaction queues the re-read beside the write-back. The arbiter then
// picks uniformly among queued requests; fault seed 5 is a schedule that
// grants the re-read first.
func TestSelfSupplyHonoursSharers(t *testing.T) {
	k := sim.New(1)
	cfg := testConfig()
	cfg.Cache = cache.Config{SizeBytes: 256, Ways: 2}
	cfg.Bus.MaxOutstanding = 1
	engines := []*core.Engine{core.NewEngine(0, core.Policy{EnableTLR: true}), core.NewEngine(1, core.Policy{EnableTLR: true})}
	s := NewSystem(k, 2, cfg, engines)
	p0 := s.Ctrls[0]
	const line = memsys.Addr(0x000)

	store(t, k, p0, line, 7)
	load(t, k, s.Ctrls[1], line)
	store(t, k, p0, 0x100, 1) // same set (2 sets, stride 128): fills the other way
	k.RunUntil(s.Quiescent)
	if st := stateOf(p0, line); st != cache.Owned {
		t.Fatalf("P0 state = %v, want O", st)
	}
	s.SetFaults(fault.New(fault.Spec{Seed: 5, ReorderPct: 100}))

	// The store to a third line of the set evicts the Owned line; the
	// re-read is issued the moment its write-back is pending.
	evicting, reading := rec.next(), rec.next()
	p0.Store(0x200, 2, rec.sink, evicting)
	if !k.RunUntil(func() bool { return p0.wbPendingFor(line) != nil }) {
		t.Fatal("the store never evicted the Owned line")
	}
	p0.Load(line, false, rec.sink, reading)
	selfSupplied := false
	if !k.RunUntil(func() bool {
		if m := p0.mshrFor(line); m != nil && m.ordered && p0.wbPendingFor(line) != nil {
			selfSupplied = true
		}
		return rec.got[evicting].done && rec.got[reading].done
	}) {
		t.Fatal("eviction or re-read never completed")
	}
	k.RunUntil(s.Quiescent)
	if !selfSupplied {
		t.Fatal("the re-read did not order before the write-back")
	}
	if v := rec.got[reading].val; v != 7 {
		t.Fatalf("P0 re-read %d, want 7", v)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(p0, line); st != cache.Shared {
		t.Fatalf("P0 state = %v, want S (P1's Shared copy is live)", st)
	}
}

// TestConcurrentReadersInstallShared: P0's GetS finds no other copy at its
// order point and goes to memory, and P1's GetS is ordered before P0's
// fill arrives. Both fills come from memory and both must install Shared:
// P0 learns of P1 only through P1's GetS being ordered while its own is
// pending.
func TestConcurrentReadersInstallShared(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	s.Mem.WriteWord(0x1000, 5)
	r0, r1 := rec.next(), rec.next()
	p0.Load(0x1000, false, rec.sink, r0)
	p1.Load(0x1000, false, rec.sink, r1)
	if !k.RunUntil(func() bool { return rec.got[r0].done && rec.got[r1].done }) {
		t.Fatal("reads never completed")
	}
	k.RunUntil(s.Quiescent)
	for i, n := range []uint64{r0, r1} {
		if v := rec.got[n].val; v != 5 {
			t.Fatalf("P%d read %d, want 5", i, v)
		}
		if st := stateOf(s.Ctrls[i], 0x1000); st != cache.Shared {
			t.Fatalf("P%d state = %v, want S", i, st)
		}
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestChainedReaderInstallsShared: P1's GetS is ordered while P0's GetX is
// ordered but has no data yet, so it chains at P0, the pending owner. When
// P0's fill lands, its store runs and the chain is served: P0 keeps an
// Owned copy, so P1 must install Shared.
func TestChainedReaderInstallsShared(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	w, r := rec.next(), rec.next()
	p0.Store(0x1000, 9, rec.sink, w)
	p1.Load(0x1000, false, rec.sink, r)
	if !k.RunUntil(func() bool { return rec.got[w].done && rec.got[r].done }) {
		t.Fatal("store or read never completed")
	}
	k.RunUntil(s.Quiescent)
	if n := p0.Stats().ChainedRequests; n != 1 {
		t.Fatalf("P0 chained %d requests, want 1", n)
	}
	if v := rec.got[r].val; v != 9 {
		t.Fatalf("P1 read %d, want 9", v)
	}
	if st := stateOf(p0, 0x1000); st != cache.Owned {
		t.Fatalf("P0 state = %v, want O", st)
	}
	if st := stateOf(p1, 0x1000); st != cache.Shared {
		t.Fatalf("P1 state = %v, want S", st)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// queuedReadRig is a system whose address bus holds one transaction at a
// time, so a request issued behind another stays queued (issued, not
// ordered) until the one ahead completes, and whose 2-way, 2-set cache with
// no victim cache lets a third line of a set evict the first.
func queuedReadRig(n int) (*sim.Kernel, *System) {
	k := sim.New(1)
	cfg := testConfig()
	cfg.Cache = cache.Config{SizeBytes: 256, Ways: 2}
	cfg.Bus.MaxOutstanding = 1
	engines := make([]*core.Engine, n)
	for i := range engines {
		engines[i] = core.NewEngine(i, core.Policy{EnableTLR: true})
	}
	return k, NewSystem(k, n, cfg, engines)
}

// TestQueuedReaderInstallsShared: P0's GetS is still queued for the address
// bus when P1's GetS for the same line is ordered ahead of it, so P1's
// snoop finds P0 with no ordered request. P0's fill must install Shared.
func TestQueuedReaderInstallsShared(t *testing.T) {
	k, s := queuedReadRig(2)
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	const line = memsys.Addr(0x000)
	s.Mem.WriteWord(line, 5)
	r1, r0 := rec.next(), rec.next()
	p1.Load(line, false, rec.sink, r1)
	p0.Load(line, false, rec.sink, r0)
	queued := false
	if !k.RunUntil(func() bool {
		if m1, m0 := p1.mshrFor(line), p0.mshrFor(line); m1 != nil && m1.ordered && m0 != nil && !m0.ordered {
			queued = true
		}
		return rec.got[r0].done && rec.got[r1].done
	}) {
		t.Fatal("reads never completed")
	}
	k.RunUntil(s.Quiescent)
	if !queued {
		t.Fatal("P0's GetS was not queued when P1's ordered")
	}
	if v := rec.got[r0].val; v != 5 {
		t.Fatalf("P0 read %d, want 5", v)
	}
	if st := stateOf(p0, line); st != cache.Shared {
		t.Fatalf("P0 state = %v, want S", st)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedReaderSharedAfterCopyGone: as TestQueuedReaderInstallsShared,
// but the other reader's copy is gone by the time P0's GetS is ordered, so
// no cache answers the sharer poll at P0's order point. P0 still installs
// Shared: another reader's GetS was ordered while P0's request was
// outstanding, and that, not the state at P0's order point, decides. In
// "evicted", P1 writes its copy and evicts it with a write-back that is
// still pending when P0's GetS orders; in "invalidated", P2's GetX
// invalidates P1's copy, and P2 then evicts the line the same way. Either
// way the pending write-back supplies P0.
func TestQueuedReaderSharedAfterCopyGone(t *testing.T) {
	const line, a, b = memsys.Addr(0x000), memsys.Addr(0x100), memsys.Addr(0x200) // one set
	for _, tc := range []struct {
		name   string
		writer int
	}{{"evicted", 1}, {"invalidated", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			k, s := queuedReadRig(3)
			p0, p1, w := s.Ctrls[0], s.Ctrls[1], s.Ctrls[tc.writer]
			// Issued in this order, the requests are ordered in this order.
			var tags []uint64
			issue := func(op func(n uint64)) {
				n := rec.next()
				tags = append(tags, n)
				op(n)
			}
			issue(func(n uint64) { p1.Load(line, false, rec.sink, n) })
			issue(func(n uint64) { w.Store(line, 9, rec.sink, n) })
			issue(func(n uint64) { w.Load(a, false, rec.sink, n) })
			issue(func(n uint64) { w.Load(b, false, rec.sink, n) })
			r0 := rec.next()
			tags = append(tags, r0)
			p0.Load(line, false, rec.sink, r0)

			gone, checked := false, false
			if !k.RunUntil(func() bool {
				if m := p0.mshrFor(line); !checked && m != nil && m.ordered {
					checked = true
					gone = !p1.SnoopShared(line) && !w.SnoopShared(line) && w.wbPendingFor(line) != nil
				}
				for _, n := range tags {
					if !rec.got[n].done {
						return false
					}
				}
				return true
			}) {
				t.Fatal("operations never completed")
			}
			k.RunUntil(s.Quiescent)
			if !gone {
				t.Fatal("another copy was live, or no write-back pending, at P0's order point")
			}
			if v := rec.got[r0].val; v != 9 {
				t.Fatalf("P0 read %d, want 9", v)
			}
			if st := stateOf(p0, line); st != cache.Shared {
				t.Fatalf("P0 state = %v, want S (P1's GetS was ordered while P0's was queued)", st)
			}
			if err := s.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
