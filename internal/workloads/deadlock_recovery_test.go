package workloads

import (
	"reflect"
	"testing"

	"tlrsim/internal/fault"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
)

// TestDeadlockRecoveryProbeTransitRace pins the probe-transit wait cycle the
// robustness sweep's high fault rung exposed (the full trace-level diagnosis
// lives on proc.Machine.recoverDeadlock and coherence's mshr.probeLost).
//
// Probes are edge-triggered: a probe carrying an older conflicting timestamp
// chases the data holder of the moment through the chain of pending mshrs,
// and only the holder it lands on re-resolves. A pending requester the probe
// merely transited can later fill, become the new holder, defer the (younger)
// chain entries parked behind it, and itself block on a different contested
// line — re-forming the Figure 6 wait cycle with no message left in flight to
// break it. Under this fault spec (grant delay + reorder + forced NACKs +
// forced aborts + message delay) the window is wide enough to hit reliably:
// before deadlock recovery existed, this exact run starved the event queue
// dry and failed with StallDeadlock. (The injection seed is re-pointed when
// protocol timing changes close the window at the old one — most recently
// the exponential NACK-retry backoff, which desynchronised the retry storm
// that seed=1 relied on.)
//
// The pinned contract: the run completes, the coherence/consistency checker
// stays clean, and recovery actually fired (so the race is exercised, not
// merely avoided) — identically with the metrics instrument set on and off.
// Instruments own no kernel events, so arming them must leave the event
// count, every result counter and the recovery itself unchanged.
func TestDeadlockRecoveryProbeTransitRace(t *testing.T) {
	spec, err := fault.ParseSpec("grant=40:40,reorder=25,nack=30,abort=15:conflict,wb=20,msg=25:40,cap=24,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		run    *stats.Run
		fired  uint64
		recovs uint64
	}
	runOnce := func(metrics bool) outcome {
		cfg := proc.BaselineConfig(8, proc.TLR, 2002)
		cfg.StallCycles = 2_000_000
		cfg.Faults = spec
		cfg.EnableMetrics = metrics
		m, err := Run(cfg, &SingleCounter{TotalOps: 512})
		if err != nil {
			t.Fatalf("metrics=%t: faulted run must terminate checker-clean, got: %v", metrics, err)
		}
		if m.DeadlockRecoveries() == 0 {
			t.Fatalf("metrics=%t: expected the probe-transit wait cycle to form and be recovered; "+
				"if the protocol now avoids it outright, repoint this test at a spec that still forms it", metrics)
		}
		r := stats.Collect(m)
		r.MetricsDump = ""
		return outcome{r, m.K.Fired(), m.DeadlockRecoveries()}
	}
	off := runOnce(false)
	on := runOnce(true)
	if !reflect.DeepEqual(off.run, on.run) {
		t.Fatalf("metrics changed results:\noff: %+v\non:  %+v", off.run, on.run)
	}
	if off.fired != on.fired || off.recovs != on.recovs {
		t.Fatalf("metrics changed the event stream: fired %d vs %d, recoveries %d vs %d",
			off.fired, on.fired, off.recovs, on.recovs)
	}
}

// TestDeadlockRecoveryNeverFiresClean guards the golden-equivalence contract:
// recovery is a last resort on a dry event queue, and a clean (uninjected)
// run must never reach that state mid-run. If this fires, clean-run behavior
// changed and the experiment goldens are no longer trustworthy.
func TestDeadlockRecoveryNeverFiresClean(t *testing.T) {
	for _, scheme := range []proc.Scheme{proc.SLE, proc.TLR} {
		cfg := proc.BaselineConfig(8, scheme, 2002)
		m, err := Run(cfg, &SingleCounter{TotalOps: 512})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if n := m.DeadlockRecoveries(); n != 0 {
			t.Fatalf("%v: clean run performed %d deadlock recoveries; want 0", scheme, n)
		}
	}
}
