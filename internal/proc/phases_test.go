package proc

import (
	"testing"

	"tlrsim/internal/sim"
)

// TestConsecutiveRunsAndReset: one machine runs two consecutive phases,
// then a third after Reset. Each run must end when its own threads finish,
// neither early (a live-thread count left over from the previous phase) nor
// late, so its clock and kernel event count are pinned.
func TestConsecutiveRunsAndReset(t *testing.T) {
	type end struct {
		cycles sim.Time
		fired  uint64
	}
	want := []end{{2685, 1662}, {5477, 3397}, {2685, 1662}}
	cfg := snapCfg(TLR, 7)
	m := NewMachine(cfg)
	lock, ctr := m.NewLock(), m.Alloc.PaddedWord()
	for run, w := range want {
		if run == 2 {
			if err := m.Reset(&cfg); err != nil {
				t.Fatal(err)
			}
			lock, ctr = m.NewLock(), m.Alloc.PaddedWord()
		}
		runPhase(t, m, lock, ctr, 40, nil)
		if got := (end{m.Cycles(), m.K.Fired()}); got != w {
			t.Errorf("run %d ended at cycle %d after %d events, want cycle %d after %d",
				run, got.cycles, got.fired, w.cycles, w.fired)
		}
	}
}
