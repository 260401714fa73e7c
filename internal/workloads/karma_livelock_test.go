package workloads

import (
	"testing"

	"tlrsim/internal/core"
	"tlrsim/internal/proc"
)

// TestKarmaServiceNoLivelock pins the karma policy's anti-livelock delay.
// Karma seniority is not stable the way a retained timestamp is: each abort
// banks the loser's invested cycles, which outbids the winner's static
// karma, so contenders restarting in lockstep leapfrog each other's
// priority and mutually abort forever. Before the karma rule's retry delay
// staggered restarts, this exact configuration — the open-loop service
// workload at its heavy arrival rate on 8 processors — wedged five CPUs on
// one hot lock at ~9.6k aborts apiece with zero commits until the watchdog
// fired. The pinned contract: the run completes checker-clean well inside
// the watchdog window.
func TestKarmaServiceNoLivelock(t *testing.T) {
	cfg := proc.BaselineConfig(8, proc.TLR, 2002)
	cfg.Policy.CM = core.CMKarma
	cfg.StallCycles = 2_000_000
	if _, err := Run(cfg, &Service{Requests: 409, MeanGap: 1200, Seed: 2002}); err != nil {
		t.Fatalf("karma service livelocked: %v", err)
	}
}
