package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"tlrsim/internal/stamp"
)

func tlrEngine(cpu int) *Engine { return NewEngine(cpu, Policy{EnableTLR: true}) }

func sleEngine(cpu int) *Engine { return NewEngine(cpu, Policy{}) }

func beginTx(e *Engine) {
	e.EnterCritical(true)
}

func TestModeTransitions(t *testing.T) {
	e := tlrEngine(0)
	if e.Mode() != ModeIdle || e.Stamp().Valid {
		t.Fatal("fresh engine should be idle and un-timestamped")
	}
	beginTx(e)
	if e.Mode() != ModeSpec || !e.Stamp().Valid {
		t.Fatal("speculation should carry a valid stamp")
	}
	e.ExitCritical(true)
	e.Commit()
	if e.Mode() != ModeIdle {
		t.Fatal("commit should return to idle")
	}
	if e.Stats().Commits != 1 || e.Stats().Starts != 1 {
		t.Fatalf("stats %+v", e.Stats())
	}
}

func TestFallbackMode(t *testing.T) {
	e := tlrEngine(0)
	e.EnterCritical(false)
	if e.Mode() != ModeFallback || e.Stamp().Valid {
		t.Fatal("acquired lock should be fallback mode, un-timestamped")
	}
	e.ExitCritical(false)
	if e.Mode() != ModeIdle {
		t.Fatal("exit should return to idle")
	}
}

func TestStampFixedAtStartAndRetainedAcrossRestart(t *testing.T) {
	e := tlrEngine(2)
	beginTx(e)
	s1 := e.Stamp()
	// Conflict observed mid-transaction must not change the stamp.
	e.ResolveIncoming(stamp.New(100, 1), 0x40, true, false)
	if !e.Stamp().Equal(s1) {
		t.Fatal("stamp changed mid-transaction")
	}
	// Abort and restart: same stamp (invariant (a) of §4).
	if !e.Abort(ReasonConflict) {
		t.Fatal("abort failed")
	}
	e.AckAbort()
	beginTx(e)
	if !e.Stamp().Equal(s1) {
		t.Fatalf("restart got stamp %v, want retained %v", e.Stamp(), s1)
	}
}

func TestClockAdvancesOnlyOnCommit(t *testing.T) {
	e := tlrEngine(0)
	v0 := e.ClockValue()
	beginTx(e)
	e.Abort(ReasonConflict)
	e.AckAbort()
	if e.ClockValue() != v0 {
		t.Fatal("clock moved on abort")
	}
	beginTx(e)
	e.ResolveIncoming(stamp.New(41, 1), 0x40, true, false)
	e.ExitCritical(true)
	e.Commit()
	if e.ClockValue() != 42 {
		t.Fatalf("clock = %d, want 42 (observed 41 + 1)", e.ClockValue())
	}
}

func TestResolveEarlierLocalWins(t *testing.T) {
	e := tlrEngine(0) // clock 0, cpu 0: earliest possible stamp
	beginTx(e)
	if d := e.ResolveIncoming(stamp.New(5, 1), 0x40, true, false); d != Defer {
		t.Fatalf("earlier local stamp must defer, got %v", d)
	}
}

func TestResolveLaterLocalLoses(t *testing.T) {
	e := tlrEngine(3)
	beginTx(e)
	e.ResolveIncoming(stamp.New(0, 0), 0x40, true, false) // first conflict line
	// Second conflicting line with an earlier incoming stamp: must lose
	// (two lines under conflict, relaxation unavailable).
	if d := e.ResolveIncoming(stamp.New(0, 0), 0x80, true, false); d != Service {
		t.Fatalf("later local stamp with multi-line conflict must service, got %v", d)
	}
}

func TestSingleBlockRelaxation(t *testing.T) {
	e := tlrEngine(3) // cpu 3: loses ties against cpu 0
	beginTx(e)
	// Earlier incoming stamp, but only one line under conflict and no other
	// outstanding miss: §3.2 allows retaining ownership.
	if d := e.ResolveIncoming(stamp.New(0, 0), 0x40, true, false); d != Defer {
		t.Fatalf("single-block conflict should be deferrable, got %v", d)
	}
	if e.Stats().RelaxedWins != 1 {
		t.Fatal("relaxed win not counted")
	}
	// Same line again is still single-block.
	if d := e.ResolveIncoming(stamp.New(0, 1), 0x40, true, false); d != Defer {
		t.Fatal("repeat conflicts on the same line should stay deferrable")
	}
	// An outstanding miss on another line reintroduces deadlock danger.
	if d := e.ResolveIncoming(stamp.New(0, 0), 0x40, true, true); d != Service {
		t.Fatal("outstanding other-line miss must enforce timestamp order")
	}
}

func TestStrictTimestampsDisableRelaxation(t *testing.T) {
	p := Policy{EnableTLR: true, CM: CMStrictTS}
	e := NewEngine(3, p)
	beginTx(e)
	if d := e.ResolveIncoming(stamp.New(0, 0), 0x40, true, false); d != Service {
		t.Fatal("strict-ts must lose to an earlier stamp even on one block")
	}
}

func TestSLEAlwaysLosesConflicts(t *testing.T) {
	e := sleEngine(0)
	beginTx(e)
	// Even an obviously later incoming stamp: SLE has no resolution scheme.
	if d := e.ResolveIncoming(stamp.New(999, 9), 0x40, true, false); d != Service {
		t.Fatal("SLE must never defer")
	}
}

func TestCannotDeferWithoutOwnership(t *testing.T) {
	e := tlrEngine(0)
	beginTx(e)
	if d := e.ResolveIncoming(stamp.New(5, 1), 0x40, false, false); d != Service {
		t.Fatal("canDefer=false must force service")
	}
}

func TestDeferredQueueBound(t *testing.T) {
	p := Policy{EnableTLR: true, MaxDeferred: 2}
	e := NewEngine(0, p)
	beginTx(e)
	for i := 0; i < 2; i++ {
		if d := e.ResolveIncoming(stamp.New(5, 1), 0x40, true, false); d != Defer {
			t.Fatal("expected defer")
		}
		e.PushDeferred(Deferred{Line: 0x40, Stamp: stamp.New(5, 1)})
	}
	if d := e.ResolveIncoming(stamp.New(5, 1), 0x40, true, false); d != Service {
		t.Fatal("full queue must force service")
	}
	if e.Stats().DeferOverflow != 1 {
		t.Fatal("overflow not counted")
	}
	got := e.TakeDeferred()
	if len(got) != 2 {
		t.Fatalf("TakeDeferred returned %d", len(got))
	}
	if e.DeferredLen() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestUntimestampedPolicyDeferByDefault(t *testing.T) {
	e := tlrEngine(0)
	beginTx(e)
	if d := e.ResolveUntimestamped(0x40, true); d != Defer {
		t.Fatal("default policy should defer untimestamped requests")
	}
	p := Policy{EnableTLR: true, AbortOnUntimestamped: true}
	e2 := NewEngine(0, p)
	beginTx(e2)
	if d := e2.ResolveUntimestamped(0x40, true); d != Service {
		t.Fatal("abort policy should service (and the controller aborts)")
	}
}

// TestFallbackRules pins the full degradation contract: the decision
// ShouldFallback gives for every abort Reason under each scheme, both on a
// fresh attempt and as restarts accumulate. Resource-class reasons
// (resource exhaustion §3.3, untimestamped data race §2.2) force immediate
// lock acquisition under either scheme; conflict-class reasons retry — TLR
// indefinitely (timestamp fairness guarantees eventual success), SLE only
// up to sleRestartLimit. Policy.MaxRestarts is the outermost safety net:
// once one attempt aborts that many times, both schemes acquire regardless
// of reason.
func TestFallbackRules(t *testing.T) {
	immediate := map[Reason]bool{
		ReasonNone:          false,
		ReasonConflict:      false,
		ReasonUpgrade:       false,
		ReasonProbe:         false,
		ReasonResource:      true,
		ReasonUntimestamped: true,
		ReasonLockWrite:     false,
		ReasonExplicit:      false,
	}
	schemes := []struct {
		name string
		mk   func(int) *Engine
	}{
		{"TLR", tlrEngine},
		{"SLE", sleEngine},
	}
	for _, s := range schemes {
		for _, r := range Reasons() {
			want, known := immediate[r]
			if !known {
				t.Fatalf("Reason %v missing from the matrix — a new reason must take a position here", r)
			}
			t.Run(fmt.Sprintf("%s/fresh/%v", s.name, r), func(t *testing.T) {
				if got := s.mk(0).ShouldFallback(r); got != want {
					t.Fatalf("fresh attempt: ShouldFallback(%v) = %v, want %v", r, got, want)
				}
			})
		}
	}

	// SLE escalation: retries conflict-class aborts up to sleRestartLimit
	// per attempt, then acquires; TLR keeps retrying at the same depth.
	restartOnce := func(e *Engine) {
		beginTx(e)
		e.Abort(ReasonConflict)
		e.AckAbort()
	}
	limit := sleRestartLimit
	sle, tlr := sleEngine(0), tlrEngine(0)
	for i := 0; i < limit; i++ {
		restartOnce(sle)
		restartOnce(tlr)
		if sle.ShouldFallback(ReasonConflict) {
			t.Fatalf("SLE acquired after %d restart(s); limit is %d", i+1, limit)
		}
	}
	restartOnce(sle)
	restartOnce(tlr)
	if !sle.ShouldFallback(ReasonConflict) {
		t.Fatalf("SLE must acquire after %d conflict restarts", limit+1)
	}
	if tlr.ShouldFallback(ReasonConflict) {
		t.Fatal("TLR must keep retrying conflicts past the SLE limit")
	}

	// MaxRestarts escalation: with the cap armed, every reason — even
	// conflict-class under TLR — acquires once one attempt has aborted cap
	// times. A fresh attempt resets the count.
	for _, s := range schemes {
		t.Run(s.name+"/max-restarts", func(t *testing.T) {
			const cap = 3
			e := s.mk(0)
			pol := e.Policy()
			pol.MaxRestarts = cap
			e.Reset(pol)
			for i := 0; i < cap; i++ {
				if e.ShouldFallback(ReasonProbe) && !immediate[ReasonProbe] && i < cap {
					// SLE may hit its own limit first; only TLR asserts
					// the intermediate state.
					if s.name == "TLR" {
						t.Fatalf("fell back after %d restart(s); cap is %d", i, cap)
					}
				}
				restartOnce(e)
			}
			for _, r := range Reasons() {
				if !e.ShouldFallback(r) {
					t.Fatalf("at the restart cap, ShouldFallback(%v) must be true", r)
				}
			}
			// A finished Critical frame resets the counter; the contract
			// reverts for the next critical section.
			e.ResetAttempt()
			if e.ShouldFallback(ReasonConflict) {
				t.Fatal("finishing the critical section must reset the restart cap")
			}
		})
	}
}

func TestNestingDepth(t *testing.T) {
	p := Policy{EnableTLR: true, MaxElisionDepth: 2}
	e := NewEngine(0, p)
	beginTx(e)
	if !e.CanElide() {
		t.Fatal("one level used, one left")
	}
	beginTx(e)
	if e.CanElide() {
		t.Fatal("depth exhausted")
	}
	if !e.Outermost() == true && e.Depth() != 2 {
		t.Fatal("depth tracking wrong")
	}
	e.ExitCritical(true)
	if !e.Outermost() {
		t.Fatal("back to outermost")
	}
	e.ExitCritical(true)
	e.Commit()
}

func TestAbortIsIdempotentAndReasonSticks(t *testing.T) {
	e := tlrEngine(0)
	beginTx(e)
	if !e.Abort(ReasonUpgrade) {
		t.Fatal("first abort should succeed")
	}
	if e.Abort(ReasonConflict) {
		t.Fatal("second abort should be a no-op")
	}
	if e.AbortReason() != ReasonUpgrade {
		t.Fatal("reason overwritten")
	}
	if e.Stats().TotalAborts() != 1 {
		t.Fatal("double-counted abort")
	}
}

func TestUpgradeViolationEscalation(t *testing.T) {
	e := tlrEngine(0)
	if e.WantExclusiveRead(0x40) {
		t.Fatal("no violations yet")
	}
	if e.NoteUpgradeViolation(0x44) {
		t.Fatal("first violation should not escalate (limit 2)")
	}
	if !e.NoteUpgradeViolation(0x40) {
		t.Fatal("second violation should escalate")
	}
	if !e.WantExclusiveRead(0x78) { // same line
		t.Fatal("escalation not remembered")
	}
	// A successful commit clears the history.
	beginTx(e)
	e.ExitCritical(true)
	e.Commit()
	if e.WantExclusiveRead(0x40) {
		t.Fatal("commit should clear upgrade-violation history")
	}
}

func TestCommitPanicsWhenAborted(t *testing.T) {
	e := tlrEngine(0)
	beginTx(e)
	e.Abort(ReasonConflict)
	defer func() {
		if recover() == nil {
			t.Fatal("commit of aborted transaction must panic")
		}
	}()
	e.Commit()
}

// Property: for any pair of distinct valid stamps, exactly one of two
// TLR engines wins a strict-timestamp conflict — no mutual defer (deadlock)
// and no mutual service (livelock) when both can defer. This is §2.1.1's
// resolution rule.
func TestPropertyConflictAntisymmetry(t *testing.T) {
	f := func(c1, c2 uint16, p1, p2 uint8) bool {
		s1, s2 := stamp.New(uint64(c1), int(p1)), stamp.New(uint64(c2), int(p2))
		if s1.Equal(s2) {
			return true
		}
		pol := Policy{EnableTLR: true, CM: CMStrictTS}
		e1, e2 := NewEngine(int(p1), pol), NewEngine(int(p2), pol)
		// Force the engines' transaction stamps.
		for e1.ClockValue() < uint64(c1) {
			beginTx(e1)
			e1.ExitCritical(true)
			e1.Commit()
		}
		for e2.ClockValue() < uint64(c2) {
			beginTx(e2)
			e2.ExitCritical(true)
			e2.Commit()
		}
		if e1.ClockValue() != uint64(c1) || e2.ClockValue() != uint64(c2) {
			return true // unreachable clock value; skip
		}
		beginTx(e1)
		beginTx(e2)
		d1 := e1.ResolveIncoming(s2, 0x40, true, false)
		d2 := e2.ResolveIncoming(s1, 0x40, true, false)
		return (d1 == Defer) != (d2 == Defer)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine holding the earliest stamp never loses a conflict it
// could defer — invariant (c) of §4, the heart of starvation freedom.
func TestPropertyEarliestNeverLoses(t *testing.T) {
	f := func(incoming []uint16, other bool) bool {
		e := tlrEngine(0) // clock 0, cpu 0: globally earliest
		beginTx(e)
		for _, c := range incoming {
			if !e.CanDeferMore() {
				return true // queue full: overflow forces service, allowed
			}
			in := stamp.New(uint64(c)+1, 1) // always later than ts<0.P0>
			if e.ResolveIncoming(in, 0x40, true, other) != Defer {
				return false
			}
			e.PushDeferred(Deferred{Line: 0x40, Stamp: in})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedFallbackSurvivesAbort(t *testing.T) {
	// An elided transaction nested inside an ACQUIRED critical section:
	// abort recovery must restore the enclosing acquired depth, not wipe it.
	e := tlrEngine(0)
	e.EnterCritical(false) // outer acquired
	e.EnterCritical(true)  // inner elided
	if e.Depth() != 2 || e.Mode() != ModeSpec {
		t.Fatalf("depth=%d mode=%v", e.Depth(), e.Mode())
	}
	e.Abort(ReasonConflict)
	e.AckAbort()
	if e.Depth() != 1 {
		t.Fatalf("depth after ack = %d, want 1 (outer acquired level remains)", e.Depth())
	}
	if e.Mode() != ModeFallback {
		t.Fatalf("mode after ack = %v, want fallback", e.Mode())
	}
	// Retry the inner elision and commit: still inside the outer lock.
	e.EnterCritical(true)
	e.ExitCritical(true)
	e.Commit()
	if e.Mode() != ModeFallback || e.Depth() != 1 {
		t.Fatalf("after nested commit: mode=%v depth=%d", e.Mode(), e.Depth())
	}
	e.ExitCritical(false)
	if e.Mode() != ModeIdle || e.Depth() != 0 {
		t.Fatalf("after outer exit: mode=%v depth=%d", e.Mode(), e.Depth())
	}
}

func TestTopLevelAckReturnsToIdle(t *testing.T) {
	e := tlrEngine(0)
	beginTx(e)
	e.Abort(ReasonConflict)
	e.AckAbort()
	if e.Mode() != ModeIdle || e.Depth() != 0 {
		t.Fatalf("mode=%v depth=%d", e.Mode(), e.Depth())
	}
}

func TestStampBeforeWrapped(t *testing.T) {
	p := Policy{EnableTLR: true}
	p.TimestampBits = 4 // window 16
	e := NewEngine(0, p)
	a := stamp.New(14, 0)
	b := stamp.New(1, 1) // wrapped ahead of 14
	if !e.StampBefore(a, b) {
		t.Fatal("14 should precede 1 in a 16-wide window")
	}
	if e.StampBefore(b, a) {
		t.Fatal("ordering must be antisymmetric")
	}
	// Unbounded engine compares plainly.
	e2 := tlrEngine(0)
	if e2.StampBefore(a, b) {
		t.Fatal("unbounded comparison: 14 is after 1")
	}
}

func TestWrappedClockAdvancesThroughRollover(t *testing.T) {
	p := Policy{EnableTLR: true}
	p.TimestampBits = 3 // window 8
	e := NewEngine(0, p)
	var prev stamp.Stamp
	for i := 0; i < 30; i++ {
		beginTx(e)
		cur := e.Stamp() // the in-flight transaction's timestamp
		// Each successive transaction must be LATER than the previous in
		// the wrapped order, across several rollovers.
		if i > 0 && !e.StampBefore(prev, cur) {
			t.Fatalf("iteration %d: %v not before %v", i, prev, cur)
		}
		prev = cur
		e.ExitCritical(true)
		e.Commit()
	}
}

func TestNackPolicySelection(t *testing.T) {
	p := Policy{EnableTLR: true, RetentionNACK: true}
	e := NewEngine(0, p)
	if !e.Policy().RetentionNACK {
		t.Fatal("policy lost")
	}
	// The resolution rules are identical; only the mechanism differs (the
	// controller turns Defer into a NACK).
	beginTx(e)
	if d := e.ResolveIncoming(stamp.New(5, 1), 0x40, true, false); d != Defer {
		t.Fatal("earlier local stamp should still win under NACK retention")
	}
}
