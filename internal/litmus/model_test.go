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

// The explorer keys its visited set by a fixed-size stateKey; the oracle
// (model_oracle_test.go) by a byte rendering of the whole state. Both must
// produce identical outcome sets on every program of a 2-CPU and a 3-CPU
// shape.
func TestExplorerMatchesStringKeyedOracle(t *testing.T) {
	e, o := newExplorer(), newOracleExplorer()
	for _, s := range []Shape{{CPUs: 2, Locs: 2, MaxOps: 2}, {CPUs: 3, Locs: 2, MaxOps: 2}} {
		progs, _ := Enumerate(s)
		for _, p := range progs {
			got, want := e.outcomesOf(p), o.outcomesOf(p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v %s: explorer outcomes %v, oracle %v", s, p, got, want)
			}
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

// Only outcome strings allocate: a warm outcomesOf (map buckets and scratch
// already sized by an earlier run) allocates at most one object per distinct
// outcome.
func TestOutcomesOfAllocatesOnlyOutcomes(t *testing.T) {
	progs, _ := Enumerate(Shape{CPUs: 3, Locs: 2, MaxOps: 2})
	e := newExplorer()
	for _, p := range progs {
		e.outcomesOf(p)
	}
	for _, i := range []int{0, len(progs) / 3, len(progs) / 2, len(progs) - 1} {
		p := progs[i]
		n := len(e.outcomesOf(p))
		if allocs := testing.AllocsPerRun(20, func() { e.outcomesOf(p) }); allocs > float64(n) {
			t.Errorf("%s: warm outcomesOf allocates %.1f objects for %d outcomes", p, allocs, n)
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
