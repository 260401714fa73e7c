package proc

import (
	"errors"
	"strings"
	"testing"

	"tlrsim/internal/fault"
)

// counterRun executes the shared-counter oracle workload (procs threads,
// iters increments each) on m and returns the run error; on success it
// asserts serializability and coherence.
func counterRun(t *testing.T, m *Machine, procs, iters int) error {
	t.Helper()
	l := m.NewLock()
	ctr := m.Alloc.PaddedWord()
	progs := make([]func(*TC), procs)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < iters; n++ {
				tc.Critical(l, func() {
					v := tc.LoadSite(ctr, 1)
					tc.Store(ctr, v+1)
				})
				tc.Compute(uint64(tc.Rand().Intn(50)))
			}
		}
	}
	if err := m.Run(progs); err != nil {
		return err
	}
	if v := m.Sys.ArchWord(ctr); v != uint64(procs*iters) {
		t.Fatalf("counter = %d, want %d", v, procs*iters)
	}
	if err := m.Sys.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	return nil
}

// chaosSpecs are the fault configurations the degradation-contract tests
// sweep: each exercises a different protocol seam, and the last combines
// them. Probabilistic intensities stay below 100 so termination is almost
// sure; the restart cap bounds retries where the adversity is relentless.
var chaosSpecs = []string{
	"grant=40:30,seed=7",
	"reorder=35,seed=11",
	"nack=30,cap=16,seed=3",
	"abort=20:conflict,cap=16,seed=5",
	"abort=15:probe,cap=16,seed=9",
	"wb=30,seed=13",
	"victim=40,seed=17",
	"skew=1000000,seed=19",
	"msg=30:40,seed=23",
	"grant=25:20,nack=20,abort=10,wb=15,victim=20,skew=50000,msg=20:30,cap=24,seed=29",
}

// TestFaultedRunsTerminateCheckerClean is the core of the degradation
// contract: under every fault configuration and every scheme the run
// terminates, the functional checker stays clean, and the counter oracle
// holds. The fault stats assert the injector actually fired.
func TestFaultedRunsTerminateCheckerClean(t *testing.T) {
	for _, spec := range chaosSpecs {
		fs, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		for _, scheme := range allSchemes {
			t.Run(spec+"/"+scheme.String(), func(t *testing.T) {
				c := cfg(4, scheme)
				c.Faults = fs
				c.StallCycles = 2_000_000 // diagnose, don't grind to the budget
				m := NewMachine(c)
				if err := counterRun(t, m, 4, 30); err != nil {
					t.Fatal(err)
				}
				// Assert the injector actually fired, but only on axes the
				// run can structurally reach: forced aborts and write-buffer
				// pressure need speculation (BASE/MCS never enter it), and
				// skew/victim/msg axes depend on footprint and protocol
				// traffic this micro-workload need not generate.
				canFire := fs.GrantDelayPct > 0 || fs.ReorderPct > 0 || fs.NackPct > 0 ||
					((fs.AbortPct > 0 || fs.WBPct > 0) && scheme.Elides())
				if canFire && m.FaultStats() == (fault.Stats{}) {
					t.Fatalf("no injections fired under %q", spec)
				}
			})
		}
	}
}

// TestFaultDisabledIsInert: a disabled spec (seed set, no axis enabled)
// yields a machine with no injector and cycle-for-cycle identical timing to
// the unfaulted baseline.
func TestFaultDisabledIsInert(t *testing.T) {
	base := NewMachine(cfg(4, TLR))
	if err := counterRun(t, base, 4, 30); err != nil {
		t.Fatal(err)
	}
	c := cfg(4, TLR)
	c.Faults = fault.Spec{Seed: 12345} // no axis enabled
	faulted := NewMachine(c)
	if faulted.Faults() != nil {
		t.Fatal("disabled spec attached an injector")
	}
	if err := counterRun(t, faulted, 4, 30); err != nil {
		t.Fatal(err)
	}
	if base.Cycles() != faulted.Cycles() {
		t.Fatalf("disabled injection perturbed timing: %d vs %d cycles", base.Cycles(), faulted.Cycles())
	}
}

// TestFaultReplayViaReset: a pooled machine rewound with Reset replays the
// identical fault stream — same cycles, same injection counts.
func TestFaultReplayViaReset(t *testing.T) {
	c := cfg(4, TLR)
	c.Faults, _ = fault.ParseSpec("nack=25,abort=10,cap=16,seed=77")
	m := NewMachine(c)
	if err := counterRun(t, m, 4, 20); err != nil {
		t.Fatal(err)
	}
	cycles, stats := m.Cycles(), m.FaultStats()
	if err := m.Reset(c); err != nil {
		t.Fatal(err)
	}
	if err := counterRun(t, m, 4, 20); err != nil {
		t.Fatal(err)
	}
	if m.Cycles() != cycles || m.FaultStats() != stats {
		t.Fatalf("replay diverged: cycles %d vs %d, stats %v vs %v",
			m.Cycles(), cycles, m.FaultStats(), stats)
	}
	// Flipping the injector seed must change the run (the stream is live).
	c2 := c
	c2.Faults.Seed = 78
	if err := m.Reset(c2); err != nil {
		t.Fatal(err)
	}
	if err := counterRun(t, m, 4, 20); err != nil {
		t.Fatal(err)
	}
	if m.FaultStats() == stats && m.Cycles() == cycles {
		t.Fatal("different fault seed reproduced the identical run")
	}
}

// TestRestartCapBoundsRetries: under a relentless conflict-abort storm TLR
// would retry forever; the restart cap must escalate every CPU to fallback
// so the run terminates with bounded per-attempt restarts.
func TestRestartCapBoundsRetries(t *testing.T) {
	c := cfg(2, TLR)
	c.Faults, _ = fault.ParseSpec("abort=100,cap=4,seed=1")
	m := NewMachine(c)
	if err := counterRun(t, m, 2, 10); err != nil {
		t.Fatal(err)
	}
	var fallbacks uint64
	for _, cpu := range m.CPUs {
		fallbacks += cpu.prog.fallbacks
	}
	if fallbacks == 0 {
		t.Fatal("abort storm with restart cap produced no fallbacks")
	}
}

// TestWatchdogDiagnosesLivelock: the same abort storm WITHOUT a restart cap
// is a true livelock (every attempt restarts, forever). The watchdog must
// convert it into a structured StallError naming the stalled CPUs and the
// abort reason cycling among them, long before the event budget.
func TestWatchdogDiagnosesLivelock(t *testing.T) {
	c := cfg(2, TLR)
	c.Faults, _ = fault.ParseSpec("abort=100,seed=1")
	c.StallCycles = 20_000
	m := NewMachine(c)
	err := counterRun(t, m, 2, 10)
	if err == nil {
		t.Fatal("uncapped abort storm terminated")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a StallError: %v", err)
	}
	if se.Kind != StallWatchdog {
		t.Fatalf("kind = %v, want watchdog", se.Kind)
	}
	msg := err.Error()
	for _, want := range []string{"watchdog stall", "reproduce:", "fault.ParseSpec", "lastAbort=", "lock=L1@"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("report missing %q:\n%s", want, msg)
		}
	}
	var aborts uint64
	for _, cs := range se.CPUs {
		aborts += cs.Aborts
	}
	if aborts == 0 {
		t.Fatalf("stalled CPUs report no aborts:\n%s", msg)
	}
}

// TestEventBudgetStructured: the livelock guard now reports the same
// structured diagnosis even with the watchdog disabled (per-CPU progress is
// always tracked).
func TestEventBudgetStructured(t *testing.T) {
	c := cfg(2, TLR)
	c.Faults, _ = fault.ParseSpec("abort=100,seed=1")
	c.MaxEvents = 100_000
	m := NewMachine(c)
	err := counterRun(t, m, 2, 10)
	if err == nil {
		t.Fatal("uncapped abort storm terminated")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a StallError: %v", err)
	}
	if se.Kind != StallEventBudget {
		t.Fatalf("kind = %v, want event-budget", se.Kind)
	}
	if !strings.Contains(err.Error(), "event budget 100000 exhausted") {
		t.Fatalf("unexpected message: %v", err)
	}
	if !strings.Contains(err.Error(), "P0:") || !strings.Contains(err.Error(), "P1:") {
		t.Fatalf("report missing per-CPU lines: %v", err)
	}
}
