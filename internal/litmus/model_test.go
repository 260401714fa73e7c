package litmus

import (
	"reflect"
	"testing"
)

// Classic litmus shapes with hand-derived outcome sets pin the reference
// model's memory semantics: TSO (store buffers, FIFO drain, store->load
// forwarding) with a fencing lock acquire and a buffered release.

func progSB(critted bool) Program {
	// Store buffering: P0: Sx Ly | P1: Sy Lx. Store values: x=1, y=9.
	var hi uint8
	if critted {
		hi = 2
	}
	return Program{NumLocs: 2, Threads: []Thread{
		{Ops: []Op{{Store, 0}, {Load, 1}}, CritHi: hi},
		{Ops: []Op{{Store, 1}, {Load, 0}}, CritHi: hi},
	}}
}

func TestReferenceStoreBufferingUnlocked(t *testing.T) {
	// Without locks TSO admits all four combinations, including the relaxed
	// both-loads-see-zero outcome SC forbids. This is the canary that the
	// model is TSO, not sequential consistency.
	got := ReferenceOutcomes(progSB(false))
	want := []string{
		"P0=[0] P1=[0] m=[1 9]",
		"P0=[0] P1=[1] m=[1 9]",
		"P0=[9] P1=[0] m=[1 9]",
		"P0=[9] P1=[1] m=[1 9]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unlocked SB outcomes = %v, want %v", got, want)
	}
}

func TestReferenceStoreBufferingLocked(t *testing.T) {
	// Fully critted, the two sections serialize: whichever thread enters
	// second observes the first thread's store, and the first thread —
	// running before the second has stored anything — observes zero. Both
	// both-zero and both-nonzero are excluded.
	got := ReferenceOutcomes(progSB(true))
	want := []string{
		"P0=[0] P1=[1] m=[1 9]",
		"P0=[9] P1=[0] m=[1 9]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("locked SB outcomes = %v, want %v", got, want)
	}
}

func TestReferenceMessagePassingFIFO(t *testing.T) {
	// P0: Sx Sy | P1: Ly Lx, unlocked. Store values: x=1, y=2. The store
	// buffer drains in FIFO order, so observing y=2 implies x=1 is visible:
	// (2, 0) must be absent.
	p := Program{NumLocs: 2, Threads: []Thread{
		{Ops: []Op{{Store, 0}, {Store, 1}}},
		{Ops: []Op{{Load, 1}, {Load, 0}}},
	}}
	got := ReferenceOutcomes(p)
	want := []string{
		"P0=[] P1=[0 0] m=[1 2]",
		"P0=[] P1=[0 1] m=[1 2]",
		"P0=[] P1=[2 1] m=[1 2]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MP outcomes = %v, want %v", got, want)
	}
}

func TestReferenceMessagePassingLocked(t *testing.T) {
	// Both threads fully critted: strict serialization leaves exactly the
	// two section orders.
	p := Program{NumLocs: 2, Threads: []Thread{
		{Ops: []Op{{Store, 0}, {Store, 1}}, CritLo: 0, CritHi: 2},
		{Ops: []Op{{Load, 1}, {Load, 0}}, CritLo: 0, CritHi: 2},
	}}
	got := ReferenceOutcomes(p)
	want := []string{
		"P0=[] P1=[0 0] m=[1 2]",
		"P0=[] P1=[2 1] m=[1 2]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("locked MP outcomes = %v, want %v", got, want)
	}
}

func TestReferenceStoreLoadForwarding(t *testing.T) {
	// A thread reading its own buffered store must see it (TSO forwarding),
	// even though memory still holds zero at that point.
	p := Program{NumLocs: 1, Threads: []Thread{
		{Ops: []Op{{Store, 0}, {Load, 0}}},
	}}
	got := ReferenceOutcomes(p)
	want := []string{"P0=[1] m=[1]"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("forwarding outcomes = %v, want %v", got, want)
	}
}

// The locked outcome set is always a subset of the unlocked one: adding
// mutual exclusion can only remove interleavings. Checked across every
// canonical program of the smoke shape by stripping crit windows.
func TestReferenceLockingOnlyRestricts(t *testing.T) {
	progs, _ := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	for _, p := range progs {
		unlocked := stripCrits(p)
		free := map[string]struct{}{}
		for _, o := range ReferenceOutcomes(unlocked) {
			free[o] = struct{}{}
		}
		for _, o := range ReferenceOutcomes(p) {
			if _, ok := free[o]; !ok {
				t.Fatalf("%s: locked outcome %q not admitted without locks", p, o)
			}
		}
	}
}

// stripCrits returns the program with every critical window removed.
func stripCrits(p Program) Program {
	q := Program{NumLocs: p.NumLocs, Threads: make([]Thread, len(p.Threads))}
	for i, t := range p.Threads {
		q.Threads[i] = Thread{Ops: t.Ops}
	}
	return q
}

// The explorer keys its visited set by a fixed-size stateKey and takes
// commuting steps without branching; the oracle (model_oracle_test.go)
// walks every interleaving, keyed by a byte rendering of the whole state.
// Both must produce identical outcome sets on every program of a 2-CPU and
// a 3-CPU shape and of the gate's own shape.
func TestExplorerMatchesStringKeyedOracle(t *testing.T) {
	e, o := newExplorer(), newOracleExplorer()
	shapes := []Shape{{CPUs: 2, Locs: 2, MaxOps: 2}, {CPUs: 3, Locs: 2, MaxOps: 2}}
	if sweepMaxOps != 2 {
		shapes = append(shapes, Shape{CPUs: 2, Locs: 2, MaxOps: sweepMaxOps})
	}
	for _, s := range shapes {
		progs, _ := Enumerate(s)
		for _, p := range progs {
			got, want := e.outcomesOf(p).strings(), o.outcomesOf(p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v %s: explorer outcomes %v, oracle %v", s, p, got, want)
			}
		}
	}
}

// Each kind of forced step fires on this program: P0's stores, its loads
// of x (which nobody else writes) and the drains of x; P1 and P2 contend on
// y and z, and the last release drains when nobody can acquire any more.
func TestExplorerForcedSteps(t *testing.T) {
	p := Program{NumLocs: 3, Threads: []Thread{
		{Ops: []Op{{Store, 0}, {Load, 0}, {Store, 0}, {Load, 1}}},
		{Ops: []Op{{Store, 1}, {Load, 2}, {Load, 0}}, CritLo: 0, CritHi: 2},
		{Ops: []Op{{Store, 2}, {Load, 1}}, CritLo: 0, CritHi: 2},
	}}
	e := newExplorer()
	got, want := e.outcomesOf(p).strings(), newOracleExplorer().outcomesOf(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: explorer outcomes %v, oracle %v", p, got, want)
	}
	for rule, name := range []string{"(a) store", "(b) load", "(c) drain"} {
		if e.fired[rule] == 0 {
			t.Errorf("%s: no %s step was forced (fired %v)", p, name, e.fired)
		}
	}
}

// Pinned totals over whole shapes: the summed reference set sizes must not
// move (the oracle test checks the sets themselves), and the number of
// states the reduced search records as visited pins the reduction, so a
// change that quietly weakens a forcing rule fails here while the outcomes
// still match. The unreduced search visits 41,988 states on 2x2x2 and
// 8,691,384 on 3x2x2.
func TestReferenceOutcomeTotals(t *testing.T) {
	cases := []struct {
		shape            Shape
		outcomes, states int
	}{
		{Shape{CPUs: 2, Locs: 2, MaxOps: 2}, 2301, 9315},
		{Shape{CPUs: 3, Locs: 2, MaxOps: 2}, 258993, 1618248},
		{Shape{CPUs: 2, Locs: 2, MaxOps: 3}, 253486, 1154987},
	}
	e := newExplorer()
	for _, c := range cases {
		progs, _ := Enumerate(c.shape)
		outcomes, states := 0, 0
		for _, p := range progs {
			outcomes += e.outcomesOf(p).len()
			states += e.seen.n
		}
		if outcomes != c.outcomes || states != c.states {
			t.Errorf("%+v: %d outcomes over %d visited states, want %d over %d",
				c.shape, outcomes, states, c.outcomes, c.states)
		}
	}
}

// The visited table forgets every key on reset, also when the generation
// stamp wraps around, and keeps every key across a grow.
func TestStateTableResetAndGrow(t *testing.T) {
	var tb stateTable
	key := func(i int) *stateKey {
		k := &stateKey{}
		k.vals[0], k.vals[1] = uint8(i), uint8(i>>8)
		return k
	}
	const n = 5000 // grows the table several times
	for _, gen := range []uint32{0, ^uint32(0)} {
		tb.gen = gen
		tb.reset(1)
		for i := 0; i < n; i++ {
			if !tb.insert(key(i)) {
				t.Fatalf("gen %d: key %d reported present", gen, i)
			}
		}
		for i := 0; i < n; i++ {
			if tb.insert(key(i)) {
				t.Fatalf("gen %d: key %d lost", gen, i)
			}
		}
		if tb.n != n {
			t.Fatalf("gen %d: %d live keys, want %d", gen, tb.n, n)
		}
	}
}

// The stateKey leaves slots for locations nobody stores to and for threads
// past the program's: cover a program with an unstored location, a load of
// it, and stores to the last of several locations.
func TestExplorerUnstoredLocations(t *testing.T) {
	p := Program{NumLocs: 4, Threads: []Thread{
		{Ops: []Op{{Load, 1}, {Store, 3}, {Load, 3}}, CritLo: 0, CritHi: 2},
		{Ops: []Op{{Store, 3}, {Load, 0}, {Store, 0}}},
		{Ops: []Op{{Load, 0}, {Load, 3}}, CritLo: 1, CritHi: 2},
	}}
	got, want := ReferenceOutcomes(p), newOracleExplorer().outcomesOf(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: explorer outcomes %v, oracle %v", p, got, want)
	}
}

// A warm outcomesOf allocates nothing: the visited table, the scratch
// slices and the outcome arena were sized by earlier programs.
func TestOutcomesOfAllocatesOnlyOutcomes(t *testing.T) {
	progs, _ := Enumerate(Shape{CPUs: 3, Locs: 2, MaxOps: 2})
	e := newExplorer()
	for _, p := range progs {
		e.outcomesOf(p)
	}
	for _, i := range []int{0, len(progs) / 3, len(progs) / 2, len(progs) - 1} {
		p := progs[i]
		if allocs := testing.AllocsPerRun(20, func() { e.outcomesOf(p) }); allocs != 0 {
			t.Errorf("%s: warm outcomesOf allocates %.1f objects, want 0", p, allocs)
		}
	}
}

func TestOutcomesOfRejectsOversizedPrograms(t *testing.T) {
	one := Thread{Ops: []Op{{Store, 0}}}
	cases := map[string]Program{
		"threads": {NumLocs: 1, Threads: []Thread{one, one, one, one, one}},
		"ops":     {NumLocs: 1, Threads: []Thread{{Ops: make([]Op, maxThreadOps+1)}}},
	}
	for name, p := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("outcomesOf accepted a program past the %s bound", name)
				}
			}()
			ReferenceOutcomes(p)
		}()
	}
}
