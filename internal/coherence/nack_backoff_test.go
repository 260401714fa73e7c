package coherence

import (
	"testing"

	"tlrsim/internal/sim"
)

// nackDelay is the delay snoop.go schedules after a request's retries-th
// NACK.
func nackDelay(seed int64, cpu, retries int) uint64 {
	return sim.Backoff(nackBackoffBase, nackBackoffCap, retries, nackJitterKey(seed, cpu, retries))
}

// TestNackBackoffShape pins the NACK-retry delay curve: exponential from
// nackBackoffBase, plateauing at the nackBackoffCap shift, jitter strictly
// under one period. The pre-fix linear fixed delay retried every 16 cycles
// forever — under a NACK storm the retries arrived in lockstep and re-lost
// in lockstep.
func TestNackBackoffShape(t *testing.T) {
	for retries := 1; retries <= nackBackoffCap+4; retries++ {
		shift := uint(retries - 1)
		if shift > nackBackoffCap {
			shift = nackBackoffCap
		}
		lo := uint64(nackBackoffBase) << shift
		d := nackDelay(2002, 0, retries)
		if d < lo || d >= 2*lo {
			t.Fatalf("retry %d: delay %d outside [%d, %d)", retries, d, lo, 2*lo)
		}
		if again := nackDelay(2002, 0, retries); again != d {
			t.Fatalf("retry %d: not deterministic (%d then %d)", retries, d, again)
		}
	}
	// The plateau: past the cap the lower bound stops growing.
	capLo := uint64(nackBackoffBase) << nackBackoffCap
	if d := nackDelay(2002, 0, nackBackoffCap+50); d < capLo || d >= 2*capLo {
		t.Fatalf("past-cap delay %d outside plateau [%d, %d)", d, capLo, 2*capLo)
	}
	// The exact schedule: a change to the curve or its jitter key moves
	// every NACK-retention run.
	want := [12]uint64{25, 42, 90, 146, 404, 671, 1868, 3037, 4243, 6760, 7927, 6682}
	for r := 1; r <= len(want); r++ {
		if d := nackDelay(2002, 3, r); d != want[r-1] {
			t.Errorf("seed 2002 cpu 3 retry %d: delay %d, want %d", r, d, want[r-1])
		}
	}
}

// TestNackBackoffDesynchronisesRequesters pins the fix's purpose: two CPUs
// NACKed at the same instant must not share a retry schedule, or every
// subsequent retry collides exactly like the first. Cumulative schedules per
// CPU (and per machine seed) must diverge within the first few retries.
func TestNackBackoffDesynchronisesRequesters(t *testing.T) {
	schedule := func(seed int64, cpu int) [8]uint64 {
		var s [8]uint64
		var at uint64
		for r := 1; r <= len(s); r++ {
			at += nackDelay(seed, cpu, r)
			s[r-1] = at
		}
		return s
	}
	if schedule(2002, 0) == schedule(2002, 1) {
		t.Fatal("cpu 0 and cpu 1 share the full retry schedule: storm stays in lockstep")
	}
	if schedule(2002, 0) == schedule(2003, 0) {
		t.Fatal("seeds 2002 and 2003 share the full retry schedule")
	}
	// No two of the first 8 CPUs may fully collide either.
	seen := map[[8]uint64]int{}
	for cpu := 0; cpu < 8; cpu++ {
		s := schedule(2002, cpu)
		if prev, dup := seen[s]; dup {
			t.Fatalf("cpu %d and cpu %d share the full retry schedule", prev, cpu)
		}
		seen[s] = cpu
	}
}
