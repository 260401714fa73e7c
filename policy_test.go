package tlrsim_test

// Every field a caller sets on Config.Policy reaches the engines; a zero
// field means the paper's value. A policy that sets some fields but not
// MaxDeferred must keep them, and one that sets only MaxDeferred must still
// get the paper's SLE restart limit and upgrade-violation limit.

import (
	"testing"

	"tlrsim"
	"tlrsim/internal/core"
)

func TestPolicyFieldsReachEngines(t *testing.T) {
	t.Run("nack-bits-restarts", func(t *testing.T) {
		cfg := tlrsim.DefaultConfig(4, tlrsim.TLR)
		cfg.Policy.RetentionNACK = true
		cfg.Policy.TimestampBits = 6
		cfg.Policy.MaxRestarts = 3
		for _, c := range tlrsim.NewMachine(cfg).CPUs {
			p := c.Engine().Policy()
			if !p.RetentionNACK || p.TimestampBits != 6 || p.MaxRestarts != 3 {
				t.Errorf("cpu %d policy = %+v, want RetentionNACK, TimestampBits 6, MaxRestarts 3",
					c.Engine().CPU(), p)
			}
		}
		m, err := tlrsim.RunWorkload(cfg, tlrsim.Benchmarks.SingleCounter(256))
		if err != nil {
			t.Fatal(err)
		}
		if n := m.Sys.Bus.Stats().Nacks; n == 0 {
			t.Error("RetentionNACK machine sent no NACKs on the single counter")
		}
	})

	t.Run("max-deferred-only", func(t *testing.T) {
		cfg := tlrsim.DefaultConfig(2, tlrsim.SLE)
		cfg.Policy.MaxDeferred = 4
		e := tlrsim.NewMachine(cfg).CPUs[0].Engine()
		if got := e.Policy().MaxDeferred; got != 4 {
			t.Fatalf("MaxDeferred = %d, want 4", got)
		}
		restart := func() {
			e.EnterCritical(true)
			e.Abort(core.ReasonConflict)
			e.AckAbort()
		}
		restart()
		if e.ShouldFallback(core.ReasonConflict) {
			t.Error("SLE fell back after one conflict restart; the paper's limit is 1")
		}
		restart()
		if !e.ShouldFallback(core.ReasonConflict) {
			t.Error("SLE kept eliding after two conflict restarts")
		}
		line := tlrsim.Addr(0x1000)
		if e.NoteUpgradeViolation(line) {
			t.Error("first upgrade violation already requested exclusive reads")
		}
		if !e.NoteUpgradeViolation(line) {
			t.Error("second upgrade violation did not request exclusive reads")
		}
	})
}
