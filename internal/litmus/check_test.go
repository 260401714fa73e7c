package litmus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tlrsim/internal/proc"
)

// TestCheckOutcomesFlagsMutants seeds the containment assertion with
// fabricated outcomes and verifies it fires: outcomes inside the locked set
// pass, any mutation (a load value no store produces, a wrong final memory
// word) escapes.
func TestCheckOutcomesFlagsMutants(t *testing.T) {
	p := progSB(true)
	locked := ReferenceOutcomes(p)
	if escaped := CheckOutcomes(p, locked); len(escaped) != 0 {
		t.Fatalf("reference outcomes escaped their own set: %v", escaped)
	}
	mutants := []string{
		"P0=[9] P1=[1] m=[1 9]", // both sections observed each other: not serializable
		"P0=[0] P1=[0] m=[1 9]", // relaxed SB outcome the lock forbids
		"P0=[0] P1=[1] m=[1 0]", // lost final store
		"P0=[7] P1=[1] m=[1 9]", // load value no store wrote
	}
	escaped := CheckOutcomes(p, mutants)
	if len(escaped) != len(mutants) {
		t.Fatalf("CheckOutcomes caught %d of %d mutants: %v", len(escaped), len(mutants), escaped)
	}
}

// TestFaultInjectionEndToEnd simulates an elision bug that silently drops
// mutual exclusion: the machine runs the program with its critical windows
// stripped, while the reference set is computed for the locked program. The
// containment check must catch the machine producing a behaviour the locked
// program cannot, and the divergence must render as a reproducer test.
func TestFaultInjectionEndToEnd(t *testing.T) {
	locked := progSB(true)
	broken := stripCrits(locked)
	var divs []Divergence
	// The dropped lock only shows when the two windows actually overlap, so
	// the perturbation sweep includes tight start jitters that keep the
	// threads near-simultaneous alongside the default wide spread.
	for _, pt := range []Perturb{{StartJitter: 1}, {StartJitter: 32}, DefaultPerturb} {
		for _, seed := range DefaultSeeds {
			out, err := Run(broken, proc.Base, seed, pt)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if escaped := CheckOutcomes(locked, []string{out}); len(escaped) != 0 {
				divs = append(divs, Divergence{
					Prog: locked, Scheme: proc.Base, Seed: seed,
					Outcome: out, Locked: ReferenceOutcomes(locked), Perturb: pt,
				})
			}
		}
	}
	if len(divs) == 0 {
		t.Fatal("no escape detected: the containment check cannot see a dropped lock")
	}

	// The emitted reproducer must pin the full failing configuration.
	src := divs[0].GoTest("TestLitmusRepro1")
	for _, frag := range []string{
		"func TestLitmusRepro1(t *testing.T) {",
		"Program{NumLocs: 2,",
		"CritLo: 0, CritHi: 2",
		"proc.Base",
		fmt.Sprintf("Perturb{StartJitter: %d,", divs[0].Perturb.StartJitter),
		"CheckOutcomes",
		divs[0].Outcome,
	} {
		if !strings.Contains(src, frag) {
			t.Fatalf("reproducer missing %q:\n%s", frag, src)
		}
	}
}

// TestCheckSmokeShape runs the real containment sweep over the smallest
// interesting shape and requires a clean report with coherent accounting.
func TestCheckSmokeShape(t *testing.T) {
	opts := Options{
		Shape: Shape{CPUs: 2, Locs: 2, MaxOps: 1},
		Seeds: []int64{1, 2},
	}
	rep := Check(opts)
	if !rep.Ok() {
		t.Fatalf("divergences on the smoke shape: %v", rep.Divergences)
	}
	if rep.Programs != 5 {
		t.Fatalf("programs = %d, want 5", rep.Programs)
	}
	wantRuns := rep.Programs * len(DefaultSchemes) * len(opts.Seeds)
	if rep.Runs != wantRuns {
		t.Fatalf("runs = %d, want %d", rep.Runs, wantRuns)
	}
	if rep.RefOutcomes == 0 || rep.ObservedOutcomes == 0 {
		t.Fatalf("empty accounting: %+v", rep)
	}
}

// TestCheckReportsDeterministically runs the same sweep with one and with
// four workers: every report field must be identical — totals are sums,
// and divergence order is defined by enumeration order, not host
// scheduling.
func TestCheckReportsDeterministically(t *testing.T) {
	opts := Options{Shape: Shape{CPUs: 2, Locs: 2, MaxOps: 2}, Seeds: []int64{1, 2, 3}, Jobs: 1}
	a := Check(opts)
	opts.Jobs = 4
	b := Check(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ across worker counts:\n%+v\n%+v", a, b)
	}
	if a.Programs != 850 || a.Runs != 850*len(DefaultSchemes)*3 || a.EnumStats.Canonical != 850 {
		t.Fatalf("report does not cover the shape: %+v", a)
	}
}

// A warm worker checks a clean program without allocating: the reference
// set, the machine runs, their outcomes and the containment lookups all
// reuse the worker's storage.
func TestCheckOneAllocFree(t *testing.T) {
	opts := Options{Seeds: []int64{1, 2}, Schemes: DefaultSchemes, Perturb: DefaultPerturb,
		MaxDivergences: DefaultMaxDivergences}
	ps := enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	w := newWorker(ps, &opts)
	for i := 0; i < ps.len(); i++ {
		w.checkOne(i)
	}
	if w.divergences != 0 {
		t.Fatalf("%d divergences on the 2x2x2 shape", w.divergences)
	}
	for _, i := range []int{0, ps.len() / 2, ps.len() - 1} {
		if n := testing.AllocsPerRun(20, func() { w.checkOne(i) }); n != 0 {
			w.ps.fill(&w.p, i)
			t.Errorf("%s: warm checkOne allocates %.1f objects, want 0", w.p, n)
		}
	}
}

// mergeTallies sums the tallies exactly and keeps the first MaxDivergences
// divergences in program order, whatever order the workers' lists arrive
// in; a program's divergences keep the order they were found in.
func TestMergeTallies(t *testing.T) {
	div := func(prog int, seed int64) indexedDivergence {
		return indexedDivergence{prog, Divergence{Seed: seed}}
	}
	ts := []*tally{
		{runs: 10, refOutcomes: 4, observed: 3, divergences: 9,
			divs: []indexedDivergence{div(5, 1), div(5, 2), div(8, 1)}},
		{runs: 7, refOutcomes: 2, observed: 2, divergences: 0},
		{runs: 5, refOutcomes: 6, observed: 1, divergences: 4,
			divs: []indexedDivergence{div(2, 3), div(2, 1), div(6, 1), div(9, 1)}},
	}
	rep := &Report{}
	mergeTallies(rep, ts, 4)
	if rep.Runs != 22 || rep.RefOutcomes != 12 || rep.ObservedOutcomes != 6 || rep.TotalDivergences != 13 {
		t.Fatalf("merged totals %+v", rep)
	}
	var got []int64
	for _, d := range rep.Divergences {
		got = append(got, d.Seed)
	}
	// Programs 2, 2, 5, 5: seeds 3, 1 of program 2, then 1, 2 of program 5.
	if want := []int64{3, 1, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retained divergence seeds %v, want %v", got, want)
	}
	rep = &Report{}
	mergeTallies(rep, []*tally{ts[2], ts[1], ts[0]}, 16)
	if len(rep.Divergences) != 7 || rep.Divergences[6].Seed != 1 || rep.TotalDivergences != 13 {
		t.Fatalf("untruncated merge: %+v", rep.Divergences)
	}
}

// TestMaskedChainDeadlockRegression pins the protocol deadlock the 3-CPU
// sweep found (and cmd/tlrlitmus now guards in CI): P1 defers P2's
// untimestamped store and becomes a masked holder of y; P0's
// earlier-timestamped request for y chains at the pending owner of record
// (P2), so P1 never saw a stamp to compare against; P1's own miss on x was
// deferred by P0 — a three-party cycle the timestamp order existed to
// prevent. The coherence fix makes the masked holder observe chained
// requests: blocked and later, it loses, and the chain drains.
func TestMaskedChainDeadlockRegression(t *testing.T) {
	p := Program{NumLocs: 2, Threads: []Thread{
		{Ops: []Op{{Kind: Store, Loc: 0}, {Kind: Load, Loc: 1}}, CritLo: 0, CritHi: 2},
		{Ops: []Op{{Kind: Store, Loc: 0}, {Kind: Store, Loc: 1}}, CritLo: 0, CritHi: 2},
		{Ops: []Op{{Kind: Store, Loc: 1}, {Kind: Store, Loc: 1}}, CritLo: 0, CritHi: 1},
	}}
	for _, scheme := range DefaultSchemes {
		for _, seed := range DefaultSeeds {
			out, err := Run(p, scheme, seed, DefaultPerturb)
			if err != nil {
				t.Fatalf("%v seed %d: %v", scheme, seed, err)
			}
			if escaped := CheckOutcomes(p, []string{out}); len(escaped) != 0 {
				t.Fatalf("%v seed %d: outcome %q outside locked set %v",
					scheme, seed, out, ReferenceOutcomes(p))
			}
		}
	}
}

// TestRunLeavesLockFree: every litmus run must end with the lock word
// released; Run checks this itself, so a healthy program returning no error
// is the assertion.
func TestRunAgreesWithReferenceOnLockedProgram(t *testing.T) {
	// The machine's BASE execution of a locked program must land inside the
	// analytic locked set — the cross-check that the timing model and the
	// abstract model agree on lock semantics.
	p := Program{NumLocs: 2, Threads: []Thread{
		{Ops: []Op{{Store, 0}, {Store, 1}}, CritLo: 0, CritHi: 2},
		{Ops: []Op{{Load, 1}, {Load, 0}}, CritLo: 0, CritHi: 2},
	}}
	for _, seed := range DefaultSeeds {
		out, err := Run(p, proc.Base, seed, DefaultPerturb)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if escaped := CheckOutcomes(p, []string{out}); len(escaped) != 0 {
			t.Fatalf("seed %d: BASE outcome %q outside the locked reference set %v",
				seed, out, ReferenceOutcomes(p))
		}
	}
}

// checkByMaps is Check as first written, the oracle for its tallies: every
// program of Enumerate in order, a reference-set map per program and a
// seen map per scheme, every divergence kept. onMachine rewrites the
// program the machine runs, as Options.onMachine does.
func checkByMaps(opts Options, onMachine func(Program) Program) *Report {
	progs, st := Enumerate(opts.Shape)
	rep := &Report{Shape: opts.Shape, EnumStats: st, Programs: len(progs)}
	r := NewRunner()
	pt := opts.Perturb.withDefaultJitter()
	for _, p := range progs {
		locked := ReferenceOutcomes(p)
		lockedSet := map[string]bool{}
		for _, o := range locked {
			lockedSet[o] = true
		}
		rep.RefOutcomes += len(locked)
		for _, scheme := range opts.Schemes {
			seen := map[string]bool{}
			for _, seed := range opts.Seeds {
				rep.Runs++
				out, err := r.Run(onMachine(p), scheme, seed, &pt)
				if err != nil {
					rep.TotalDivergences++
					rep.Divergences = append(rep.Divergences, Divergence{Prog: p, Scheme: scheme, Seed: seed,
						Err: err, Locked: locked, Perturb: pt})
					continue
				}
				seen[out] = true
				if !lockedSet[out] {
					rep.TotalDivergences++
					rep.Divergences = append(rep.Divergences, Divergence{Prog: p, Scheme: scheme, Seed: seed,
						Outcome: out, Locked: locked, Perturb: pt})
				}
			}
			rep.ObservedOutcomes += len(seen)
		}
	}
	return rep
}

// With divergences planted — the machine runs every program with its
// critical windows stripped — Check's report equals the map-based
// oracle's, divergences truncated to MaxDivergences, at one and at four
// workers. Escaped outcomes count among the observed ones.
func TestCheckDivergencesMatchMapOracle(t *testing.T) {
	opts := Options{
		Shape:   Shape{CPUs: 2, Locs: 2, MaxOps: 2},
		Seeds:   []int64{1, 2, 3},
		Schemes: DefaultSchemes,
		// Tight start jitter keeps the threads' windows overlapping, so
		// the dropped locks show.
		Perturb:        Perturb{StartJitter: 8},
		MaxDivergences: 5,
		onMachine:      stripCrits,
	}
	want := checkByMaps(opts, stripCrits)
	if want.TotalDivergences <= opts.MaxDivergences {
		t.Fatalf("only %d divergences planted; the test needs more than %d",
			want.TotalDivergences, opts.MaxDivergences)
	}
	want.Divergences = want.Divergences[:opts.MaxDivergences]
	for _, jobs := range []int{1, 4} {
		opts.Jobs = jobs
		if got := Check(opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs %d: report\n%+v\nwant\n%+v", jobs, got, want)
		}
	}
}
