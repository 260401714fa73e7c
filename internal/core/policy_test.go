package core

import (
	"testing"

	"tlrsim/internal/stamp"
)

func engineWithCM(cpu int, cm CM) *Engine {
	p := DefaultPolicy()
	p.CM = cm
	return NewEngine(cpu, p)
}

func TestParseCMRoundTrip(t *testing.T) {
	for _, cm := range CMs() {
		got, err := ParseCM(cm.String())
		if err != nil || got != cm {
			t.Fatalf("ParseCM(%q) = %v, %v; want %v", cm.String(), got, err, cm)
		}
	}
	if _, err := ParseCM("optimal"); err == nil {
		t.Fatal("ParseCM must reject unknown policy names")
	}
	if len(CMs()) < 4 {
		t.Fatalf("matrix needs >= 4 policies, have %d", len(CMs()))
	}
}

func TestPolicyForInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PolicyFor(cmCount) should panic")
		}
	}()
	PolicyFor(cmCount)
}

// TestStrictTSPolicyMatchesStrictTimestampsFlag pins the ablation
// absorption: CMStrictTS must make exactly the decisions the pre-seam
// StrictTimestamps flag made, across the win/lose/relaxation-eligible cases.
func TestStrictTSPolicyMatchesStrictTimestampsFlag(t *testing.T) {
	flag := DefaultPolicy()
	flag.StrictTimestamps = true
	cases := []struct {
		in               stamp.Stamp
		otherOutstanding bool
	}{
		{stamp.New(5, 1), false}, // local earlier: win either way
		{stamp.New(0, 0), false}, // local later, single block: relaxation point
		{stamp.New(0, 0), true},  // local later, other miss outstanding
		{stamp.Stamp{}, false},   // untimestamped handled separately below
	}
	for _, tc := range cases {
		a := NewEngine(3, flag)
		b := engineWithCM(3, CMStrictTS)
		beginTx(a)
		beginTx(b)
		if !tc.in.Valid {
			da := a.ResolveUntimestamped(0x40, true)
			db := b.ResolveUntimestamped(0x40, true)
			if da != db {
				t.Fatalf("untimestamped: flag=%v policy=%v", da, db)
			}
			continue
		}
		da := a.ResolveIncoming(tc.in, 0x40, true, tc.otherOutstanding)
		db := b.ResolveIncoming(tc.in, 0x40, true, tc.otherOutstanding)
		if da != db {
			t.Fatalf("in=%v other=%v: flag=%v policy=%v", tc.in, tc.otherOutstanding, da, db)
		}
	}
}

func TestRequesterWinsAlwaysServices(t *testing.T) {
	e := engineWithCM(0, CMRequesterWins) // cpu 0, clock 0: earliest possible stamp
	beginTx(e)
	// Even against an obviously later incoming stamp the local side loses.
	if d := e.ResolveIncoming(stamp.New(999, 9), 0x40, true, false); d != Service {
		t.Fatalf("requester-wins must service, got %v", d)
	}
	if d := e.ResolveUntimestamped(0x40, true); d != Service {
		t.Fatalf("requester-wins must service untimestamped requests, got %v", d)
	}
}

// abortOnce drives one squash/ack/retry cycle.
func abortOnce(e *Engine) {
	if !e.Abort(ReasonConflict) {
		panic("abort failed")
	}
	e.AckAbort()
	beginTx(e)
}

func TestRequesterWinsFallbackCap(t *testing.T) {
	for _, tc := range []struct {
		cm    CM
		limit int
	}{
		{CMRequesterWins, requesterWinsRestartLimit},
		{CMBackoff, backoffRestartLimit},
	} {
		e := engineWithCM(0, tc.cm)
		beginTx(e)
		for i := 1; i < tc.limit; i++ {
			abortOnce(e)
			if e.ShouldFallback(ReasonConflict) {
				t.Fatalf("%v: fallback after %d restarts, limit %d", tc.cm, i, tc.limit)
			}
		}
		abortOnce(e)
		if !e.ShouldFallback(ReasonConflict) {
			t.Fatalf("%v: no fallback at restart limit %d", tc.cm, tc.limit)
		}
	}
}

func TestTimestampPoliciesNeverFallbackOnConflict(t *testing.T) {
	for _, cm := range []CM{CMTimestamp, CMStrictTS, CMKarma} {
		e := engineWithCM(0, cm)
		beginTx(e)
		for i := 0; i < 100; i++ {
			abortOnce(e)
		}
		if e.ShouldFallback(ReasonConflict) {
			t.Fatalf("%v: timestamp fairness should retry conflicts indefinitely", cm)
		}
		// Resource-class aborts still fall back under every policy.
		if !e.ShouldFallback(ReasonResource) {
			t.Fatalf("%v: resource aborts must always fall back", cm)
		}
	}
}

func TestBackoffRetryDelay(t *testing.T) {
	p := DefaultPolicy()
	p.CM = CMBackoff
	p.Seed = 2002
	e := NewEngine(1, p)
	beginTx(e)
	if e.RetryBackoff() == 0 {
		t.Fatal("backoff policy should delay even the first retry")
	}
	var prev uint64
	for i := 1; i <= backoffMaxShift+4; i++ {
		abortOnce(e)
		d := e.RetryBackoff()
		// Deterministic per (seed, cpu, restart ordinal).
		if again := e.RetryBackoff(); again != d {
			t.Fatalf("restart %d: delay not deterministic: %d then %d", i, d, again)
		}
		shift := uint(i - 1)
		if shift > backoffMaxShift {
			shift = backoffMaxShift
		}
		lo := uint64(backoffBase) << shift
		if d < lo || d >= 2*lo {
			t.Fatalf("restart %d: delay %d outside [%d, %d)", i, d, lo, 2*lo)
		}
		if shift < backoffMaxShift && prev != 0 && d <= prev/4 {
			t.Fatalf("restart %d: delay %d collapsed below growth trend (prev %d)", i, d, prev)
		}
		prev = d
	}
	// The timestamp-ordered policies add no delay: stamp retention already
	// guarantees the loser eventually wins, so waiting only wastes cycles.
	for _, cm := range []CM{CMTimestamp, CMStrictTS, CMRequesterWins} {
		o := engineWithCM(0, cm)
		beginTx(o)
		abortOnce(o)
		if d := o.RetryBackoff(); d != 0 {
			t.Fatalf("%v: unexpected retry delay %d", cm, d)
		}
	}
}

// TestKarmaRetryDelay pins karma's anti-livelock stagger: a bounded jittered
// delay strictly below the backoff policy's curve (karma manages contention
// with priority, the delay exists only to desynchronise lockstep restarts —
// see TestKarmaServiceNoLivelock in internal/workloads for the livelock it
// prevents).
func TestKarmaRetryDelay(t *testing.T) {
	p := DefaultPolicy()
	p.CM = CMKarma
	p.Seed = 2002
	e := NewEngine(1, p)
	b := DefaultPolicy()
	b.CM = CMBackoff
	b.Seed = 2002
	eb := NewEngine(1, b)
	beginTx(e)
	beginTx(eb)
	for i := 1; i <= karmaBackoffMaxShift+4; i++ {
		abortOnce(e)
		abortOnce(eb)
		d := e.RetryBackoff()
		if again := e.RetryBackoff(); again != d {
			t.Fatalf("restart %d: delay not deterministic: %d then %d", i, d, again)
		}
		shift := uint(i - 1)
		if shift > karmaBackoffMaxShift {
			shift = karmaBackoffMaxShift
		}
		lo := uint64(karmaBackoffBase) << shift
		if d < lo || d >= 2*lo {
			t.Fatalf("restart %d: delay %d outside [%d, %d)", i, d, lo, 2*lo)
		}
		if db := eb.RetryBackoff(); d >= db {
			t.Fatalf("restart %d: karma delay %d not below backoff's %d", i, d, db)
		}
	}
	// Distinct CPUs stagger — the whole point: lockstep restarts must land
	// at different cycles or the leapfrog never breaks.
	delays := func(cpu int) [6]uint64 {
		pc := DefaultPolicy()
		pc.CM = CMKarma
		pc.Seed = 2002
		ec := NewEngine(cpu, pc)
		beginTx(ec)
		var out [6]uint64
		for i := range out {
			abortOnce(ec)
			out[i] = ec.RetryBackoff()
		}
		return out
	}
	if delays(1) == delays(2) {
		t.Fatal("cpu 1 and cpu 2 share a full karma retry schedule")
	}
}

// TestBackoffDesynchronisesCPUs pins the point of the jitter: two CPUs that
// abort in lockstep must not share a retry schedule, or they re-collide
// forever. Distinct (seed, cpu) pairs must diverge somewhere in the first
// few retries.
func TestBackoffDesynchronisesCPUs(t *testing.T) {
	delays := func(cpu int, seed int64) []uint64 {
		p := DefaultPolicy()
		p.CM = CMBackoff
		p.Seed = seed
		e := NewEngine(cpu, p)
		beginTx(e)
		var out []uint64
		for i := 0; i < 6; i++ {
			abortOnce(e)
			out = append(out, e.RetryBackoff())
		}
		return out
	}
	same := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(delays(0, 2002), delays(1, 2002)) {
		t.Fatal("cpu 0 and cpu 1 share a full retry schedule: no desynchronisation")
	}
	if same(delays(0, 2002), delays(0, 2003)) {
		t.Fatal("seeds 2002 and 2003 share a full retry schedule")
	}
}

func TestKarmaStampSeniority(t *testing.T) {
	young := engineWithCM(0, CMKarma)
	old := engineWithCM(1, CMKarma)
	beginTx(young)
	beginTx(old)
	// Equal karma: the stamps tie on clock and fall back to CPU order.
	if !young.StampBefore(young.Stamp(), old.Stamp()) {
		t.Fatal("zero-karma tie should break by CPU id")
	}
	// Bank aborted work on the old engine and restart: it must now outrank.
	old.Abort(ReasonConflict)
	old.NoteAbortedWork(5000)
	old.AckAbort()
	beginTx(old)
	if !old.StampBefore(old.Stamp(), young.Stamp()) {
		t.Fatalf("karma %d should outrank zero karma: old %v young %v",
			old.Karma(), old.Stamp(), young.Stamp())
	}
	// More banked work accumulates across restarts.
	s1 := old.Stamp()
	old.Abort(ReasonConflict)
	old.NoteAbortedWork(5000)
	old.AckAbort()
	beginTx(old)
	if !old.StampBefore(old.Stamp(), s1) {
		t.Fatal("accumulated karma should strictly increase seniority")
	}
	// Commit resets the bank: the next attempt is junior again.
	old.ExitCritical(true)
	old.Commit()
	if old.Karma() != 0 {
		t.Fatalf("commit should reset karma, have %d", old.Karma())
	}
	beginTx(old)
	if old.Stamp().Clock != karmaStampBase {
		t.Fatalf("post-commit stamp clock %d, want base %d", old.Stamp().Clock, karmaStampBase)
	}
	// Fallback also settles the account.
	old.Abort(ReasonConflict)
	old.NoteAbortedWork(123)
	old.AckAbort()
	old.NoteFallback()
	if old.Karma() != 0 {
		t.Fatalf("fallback should reset karma, have %d", old.Karma())
	}
}

func TestKarmaStampSaturates(t *testing.T) {
	e := engineWithCM(0, CMKarma)
	beginTx(e)
	e.Abort(ReasonConflict)
	e.NoteAbortedWork(1 << 62) // absurd bank: must clamp, not wrap
	e.AckAbort()
	beginTx(e)
	if got := e.Stamp().Clock; got != 1 {
		t.Fatalf("saturated karma stamp clock %d, want 1", got)
	}
}

// TestResetClearsKarma: the karma bank is run state, so a pooled engine
// rewound for the next run starts with none.
func TestResetClearsKarma(t *testing.T) {
	e := engineWithCM(0, CMKarma)
	beginTx(e)
	e.Abort(ReasonConflict)
	e.NoteAbortedWork(777)
	e.AckAbort()
	if e.Karma() != 777 {
		t.Fatalf("aborted work not banked: %d", e.Karma())
	}
	e.Reset(e.Policy())
	if e.Karma() != 0 {
		t.Fatalf("reset kept the karma bank: %d", e.Karma())
	}
}

// TestPeekDeferredImmutable pins the defensive view: appending to the
// returned slice must reallocate, never clobber the queue the engine still
// owns (the §3.2 revocation check iterates it while requests can arrive).
func TestPeekDeferredImmutable(t *testing.T) {
	e := tlrEngine(0)
	beginTx(e)
	e.PushDeferred(Deferred{Line: 0x40, Stamp: stamp.New(7, 1)})
	e.PushDeferred(Deferred{Line: 0x80, Stamp: stamp.New(8, 2)})
	peek := e.PeekDeferred()
	if len(peek) != 2 || cap(peek) != 2 {
		t.Fatalf("peek len=%d cap=%d, want 2/2 (capacity clamped)", len(peek), cap(peek))
	}
	_ = append(peek, Deferred{Line: 0xC0, Stamp: stamp.New(9, 3)})
	if n := e.DeferredLen(); n != 2 {
		t.Fatalf("append through peek changed queue length: %d", n)
	}
	got := e.TakeDeferred()
	if len(got) != 2 || got[0].Line != 0x40 || got[1].Line != 0x80 {
		t.Fatalf("queue corrupted by peek append: %+v", got)
	}
}
