package coherence

import (
	"testing"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/checker"
	"tlrsim/internal/core"
	"tlrsim/internal/memsys"
)

// sharingRound is one round of a two-CPU sharing pattern on line a: P0
// read-misses (a GetS the owner P1 supplies cache to cache), then P1
// re-takes the line with an exclusive-intent load (an Upgrade of its Owned
// copy, ordered and completed inside its own snoop dispatch), which
// invalidates P0. Every round issues two transactions, each on a fresh
// MSHR. The sink and tag are bound once, so a round allocates only what the
// protocol itself allocates.
func sharingRound(t *testing.T, s *System, a memsys.Addr) func() {
	c0, c1 := s.Ctrls[0], s.Ctrls[1]
	fired := 0
	sink, n := rec.sink, rec.then(func(uint64, bool) { fired++ })
	return func() {
		fired = 0
		c0.Load(a, false, sink, n)
		s.K.Run()
		c1.Load(a, true, sink, n)
		s.K.Run()
		if fired != 2 || stateOf(c0, a) != cache.Invalid || !stateOf(c1, a).Writable() {
			t.Fatalf("round ended with %d loads done, P0 %v, P1 %v", fired, stateOf(c0, a), stateOf(c1, a))
		}
	}
}

// A warm miss allocates neither an MSHR nor a bus transaction (nor
// anything else on this path, with or without the functional checker
// attached): both come back from the free lists their previous round
// returned them to.
func TestWarmMissAllocFree(t *testing.T) {
	for _, withChecker := range []bool{false, true} {
		k, s := rig(2, core.Policy{EnableTLR: true})
		if withChecker {
			s.AttachChecker(checker.New())
		}
		const a = memsys.Addr(0x1000)
		round := sharingRound(t, s, a)
		s.Ctrls[1].Load(a, true, rec.sink, rec.next())
		k.Run()
		round()
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("checker %v: warm sharing round (two misses) allocates %.1f objects, want 0", withChecker, n)
		}
		if got := s.Ctrls[0].Stats().Misses; got < 100 {
			t.Errorf("checker %v: P0 took %d misses, want one per round", withChecker, got)
		}
		if s.Check != nil && s.Check.Err() != nil {
			t.Errorf("checker: %v", s.Check.Err())
		}
	}
}

// Released MSHRs and transactions go back to their free lists and are the
// ones the next miss reuses. Under the tlrpoison build tag a released MSHR
// also reads back as poisoned until reuse.
func TestReleasedMSHRIsRecycled(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	const a = memsys.Addr(0x1000)
	round := sharingRound(t, s, a)
	s.Ctrls[1].Load(a, true, rec.sink, rec.next())
	k.Run()
	round()
	c0 := s.Ctrls[0]
	if len(c0.freeMSHRs) != 1 {
		t.Fatalf("P0 has %d free MSHRs after a completed miss, want 1", len(c0.freeMSHRs))
	}
	freed := c0.freeMSHRs[0]
	if bus.Poison && (freed.line != ^memsys.Addr(0) || freed.kind != bus.Kind(-1) || freed.txn != nil) {
		t.Fatalf("released MSHR not poisoned: %+v", *freed)
	}
	c0.Load(a, false, rec.sink, rec.next())
	if got := c0.mshrFor(a.Line()); got != freed {
		t.Fatal("the next miss did not reuse the released MSHR")
	}
	if got := c0.mshrFor(a.Line()); got.line != a.Line() || got.kind != bus.GetS || got.txn == nil || got.ordered {
		t.Fatalf("recycled MSHR not reinitialised: %+v", *got)
	}
	k.Run()
}
