package litmus

import (
	"testing"
)

// BenchmarkLitmusSweepShort times the short smoke shape (the CI shape) with
// warm-machine reuse, the configuration the containment gate actually runs.
// One iteration is a complete sweep: enumerate, reference sets, machine runs.
func BenchmarkLitmusSweepShort(b *testing.B) {
	benchSweep(b, false)
}

// BenchmarkLitmusSweepShortCold is the same sweep with pooling disabled:
// every machine run pays construction. The ratio against
// BenchmarkLitmusSweepShort is the warm-reuse win.
func BenchmarkLitmusSweepShortCold(b *testing.B) {
	benchSweep(b, true)
}

func benchSweep(b *testing.B, cold bool) {
	opts := Options{
		Shape: Shape{CPUs: 2, Locs: 2, MaxOps: 2},
		Seeds: []int64{1, 2, 3, 4},
		Jobs:  1,
		cold:  cold,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Check(opts)
		if !rep.Ok() {
			b.Fatalf("containment failed: %d divergences", rep.TotalDivergences)
		}
	}
}

// Steady-state reuse gate: once the pool is warm, a litmus run constructs
// no machine, and the runner, RunLitmus, the run's lock, the miss path and
// the CPU's op path reuse their scratch: load records, thread state
// machines, final-word and outcome buffers, MSHRs, bus transactions,
// store-buffer entries and waiters, and the CPU's pre-bound completions.
// What a warm run still allocates is its result, the outcome string: 1.0
// object per run on this program for each of the three schemes, in race
// and non-race builds alike. The ceiling sits one object above that, so a
// construction (over 100 objects) or any per-operation closure sneaking
// back into the warm path trips it.
const warmRunAllocCeiling = 2

func TestSteadyStateRunMachineAllocFree(t *testing.T) {
	progs, _ := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	if len(progs) == 0 {
		t.Fatal("no programs enumerated")
	}
	p := progs[len(progs)/2]

	r := NewRunner()
	run := func() {
		for _, scheme := range DefaultSchemes {
			if _, err := r.Run(p, scheme, 1, &DefaultPerturb); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if warm := testing.AllocsPerRun(50, run) / float64(len(DefaultSchemes)); warm > warmRunAllocCeiling {
		t.Errorf("%s: warm run allocates %.1f objects, want <= %d: machine reuse or scratch reuse broken?",
			p, warm, warmRunAllocCeiling)
	}
}

// BenchmarkReferenceModel times the reference model alone: one iteration
// computes the outcome set of every program of the 2x2x<=3 shape on one
// reused explorer, as a sweep worker does.
func BenchmarkReferenceModel(b *testing.B) {
	progs, _ := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 3})
	e := newExplorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			e.outcomesOf(p)
		}
	}
}
