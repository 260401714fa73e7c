package litmus

import (
	"testing"

	"tlrsim/internal/fault"
)

// chaosFaults are the fault configurations the chaos containment sweep runs.
// Each config leans on a different protocol seam (arbitration, NACK storms,
// forced restarts with timestamp skew, capacity pressure with message
// delay); every one must preserve outcome containment — faults may select
// among contained outcomes, never admit new ones. Probabilistic intensities
// stay below 100 so termination is almost sure, and the restart cap bounds
// retries where the adversity is relentless.
var chaosFaults = []string{
	"grant=40:30,reorder=30,seed=101",
	"nack=25,cap=16,seed=103",
	"abort=15:conflict,cap=16,skew=100000,seed=107",
	"wb=25,victim=30,msg=30:40,cap=16,seed=109",
}

// TestChaosContainmentSweep is the fault-model half of the correctness
// gate: the exhaustive containment property must survive every chaos
// configuration, and no run may fail undiagnosed (a watchdog stall or
// budget exhaustion surfaces as a run-failure divergence and fails the
// test with its structured report).
//
// The clean tier-1 sweep already covers the full 3-op shape; chaos mode
// multiplies every run by the fault-config count, so it sweeps the 2-op
// shape (850 canonical programs) with a reduced seed set in short mode.
func TestChaosContainmentSweep(t *testing.T) {
	shape := Shape{CPUs: 2, Locs: 2, MaxOps: 2}
	for _, spec := range chaosFaults {
		t.Run(spec, func(t *testing.T) {
			fs, err := fault.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Shape: shape, Perturb: Perturb{Faults: fs}}
			if testing.Short() {
				opts.Seeds = []int64{1, 2, 3}
			}
			rep := Check(opts)
			t.Logf("chaos %q: %d programs, %d runs, %d observed outcomes",
				spec, rep.Programs, rep.Runs, rep.ObservedOutcomes)
			reportDivergences(t, rep)
		})
	}
}

// TestChaosRunDeterminism pins the replay property the sweeps' warm
// runners rely on: the same (program, scheme, seed, perturbation) run,
// reused through the shared machine cache or on a fresh machine (Run),
// produces the identical outcome. It covers every default scheme, under the
// clean perturbation the containment gate runs and under a chaos fault
// spec, with one warm runner carried across all of them.
func TestChaosRunDeterminism(t *testing.T) {
	fs, err := fault.ParseSpec("nack=25,abort=10,cap=16,seed=103")
	if err != nil {
		t.Fatal(err)
	}
	chaos := DefaultPerturb
	chaos.Faults = fs
	progs, _ := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	warm := NewRunner()
	for _, pt := range []Perturb{DefaultPerturb, chaos} {
		for _, scheme := range DefaultSchemes {
			for _, p := range progs[:40] {
				for _, seed := range []int64{1, 2} {
					a, errA := warm.Run(p, scheme, seed, &pt)
					b, errB := Run(p, scheme, seed, pt)
					if errA != nil || errB != nil {
						t.Fatalf("%s %v seed %d faults %q: warm err %v, fresh err %v",
							p, scheme, seed, pt.Faults, errA, errB)
					}
					if a != b {
						t.Fatalf("%s %v seed %d faults %q: warm outcome %q != fresh %q",
							p, scheme, seed, pt.Faults, a, b)
					}
				}
			}
		}
	}
}
