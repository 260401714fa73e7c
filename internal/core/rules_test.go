package core

import (
	"fmt"
	"strings"
	"testing"

	"tlrsim/internal/stamp"
)

// ruleObs is everything one contention-management configuration decides,
// observed through the engine's public decision sites.
type ruleObs struct {
	// ResolveIncoming against an earlier and a later incoming stamp, with
	// (Other) and without another miss outstanding.
	inEarlier, inEarlierOther, inLater, inLaterOther Decision
	untimestamped                                    Decision
	// fallback lists the conflict restarts (1..17) after which
	// ShouldFallback(ReasonConflict) holds, as a bit per restart.
	fallback uint32
	// backoff is RetryBackoff after restarts 1..4 (seed 2002, cpu 3).
	backoff [4]uint64
	// stampClock is the clock of the attempt stamp after one abort that
	// banked 5000 cycles of aborted work.
	stampClock uint64
	// relaxedWins sums RelaxedWins over the four ResolveIncoming probes.
	relaxedWins uint64
}

func (o ruleObs) String() string {
	return fmt.Sprintf("in(earlier=%v/%v later=%v/%v) untimestamped=%v fallback=%#x backoff=%v stamp=%d relaxed=%d",
		o.inEarlier, o.inEarlierOther, o.inLater, o.inLaterOther, o.untimestamped,
		o.fallback, o.backoff, o.stampClock, o.relaxedWins)
}

const ruleCPU = 3

// observeRules drives fresh engines under pol through every decision site.
func observeRules(pol Policy) ruleObs {
	var o ruleObs
	fresh := func() *Engine {
		e := NewEngine(ruleCPU, pol)
		beginTx(e)
		return e
	}
	resolve := func(later bool, other bool) Decision {
		e := fresh()
		local := e.Stamp()
		// Same clock and a lower CPU id is earlier; a larger clock is later.
		in := stamp.New(local.Clock, 1)
		if later {
			in = stamp.New(local.Clock+5, 1)
		}
		d := e.ResolveIncoming(in, 0x40, true, other)
		o.relaxedWins += e.Stats().RelaxedWins
		return d
	}
	o.inEarlier = resolve(false, false)
	o.inEarlierOther = resolve(false, true)
	o.inLater = resolve(true, false)
	o.inLaterOther = resolve(true, true)
	o.untimestamped = fresh().ResolveUntimestamped(0x40, true)

	e := fresh()
	for r := 1; r <= 17; r++ {
		abortOnce(e)
		if e.ShouldFallback(ReasonConflict) {
			o.fallback |= 1 << r
		}
	}

	e = fresh()
	for r := range o.backoff {
		abortOnce(e)
		o.backoff[r] = e.RetryBackoff()
	}

	e = fresh()
	e.Abort(ReasonConflict)
	e.NoteAbortedWork(5000)
	e.AckAbort()
	beginTx(e)
	o.stampClock = e.Stamp().Clock
	return o
}

// TestContentionRuleMatrix pins every contention-management decision for
// EnableTLR × AbortOnUntimestamped × CM. Under SLE (EnableTLR off) a
// policy's attempt stamp and retry delay still apply; its conflict
// ordering and restart cap do not. AbortOnUntimestamped changes only the
// untimestamped decision, and only where a policy would defer.
func TestContentionRuleMatrix(t *testing.T) {
	const (
		D = Defer
		S = Service
		// sle is plain SLE's cap: fall back after every conflict restart
		// past the first, whatever the policy.
		sle = 0x3fffc
		// karmaStamp is a 5000-cycle bank under the zero-karma base.
		karmaStamp = karmaStampBase - 5000
	)
	none := [4]uint64{}
	backoffCurve := [4]uint64{51, 95, 132, 275}
	karmaCurve := [4]uint64{19, 63, 68, 147}
	// Each ruleObs reads: ResolveIncoming (earlier, earlier+other, later,
	// later+other), ResolveUntimestamped, fallback restarts, RetryBackoff,
	// attempt stamp clock, RelaxedWins.
	want := []struct {
		tlr, abortUntimestamped bool
		cm                      CM
		obs                     ruleObs
	}{
		{false, false, CMTimestamp, ruleObs{S, S, S, S, S, sle, none, 0, 0}},
		{false, false, CMStrictTS, ruleObs{S, S, S, S, S, sle, none, 0, 0}},
		{false, false, CMRequesterWins, ruleObs{S, S, S, S, S, sle, none, 0, 0}},
		{false, false, CMBackoff, ruleObs{S, S, S, S, S, sle, backoffCurve, 0, 0}},
		{false, false, CMKarma, ruleObs{S, S, S, S, S, sle, karmaCurve, karmaStamp, 0}},
		{false, true, CMTimestamp, ruleObs{S, S, S, S, S, sle, none, 0, 0}},
		{false, true, CMStrictTS, ruleObs{S, S, S, S, S, sle, none, 0, 0}},
		{false, true, CMRequesterWins, ruleObs{S, S, S, S, S, sle, none, 0, 0}},
		{false, true, CMBackoff, ruleObs{S, S, S, S, S, sle, backoffCurve, 0, 0}},
		{false, true, CMKarma, ruleObs{S, S, S, S, S, sle, karmaCurve, karmaStamp, 0}},
		// Under TLR an earlier incoming stamp wins except at the §3.2
		// relaxation point (timestamp only, single line, no other miss).
		{true, false, CMTimestamp, ruleObs{D, S, D, D, D, 0, none, 0, 1}},
		{true, false, CMStrictTS, ruleObs{S, S, D, D, D, 0, none, 0, 0}},
		{true, false, CMRequesterWins, ruleObs{S, S, S, S, S, 0x3ff00, none, 0, 0}},
		{true, false, CMBackoff, ruleObs{S, S, S, S, S, 0x30000, backoffCurve, 0, 0}},
		{true, false, CMKarma, ruleObs{S, S, D, D, D, 0, karmaCurve, karmaStamp, 0}},
		{true, true, CMTimestamp, ruleObs{D, S, D, D, S, 0, none, 0, 1}},
		{true, true, CMStrictTS, ruleObs{S, S, D, D, S, 0, none, 0, 0}},
		{true, true, CMRequesterWins, ruleObs{S, S, S, S, S, 0x3ff00, none, 0, 0}},
		{true, true, CMBackoff, ruleObs{S, S, S, S, S, 0x30000, backoffCurve, 0, 0}},
		{true, true, CMKarma, ruleObs{S, S, D, D, S, 0, karmaCurve, karmaStamp, 0}},
	}
	if len(want) != 2*2*int(cmCount) {
		t.Fatalf("matrix has %d rows, want %d", len(want), 2*2*int(cmCount))
	}
	for _, w := range want {
		pol := Policy{EnableTLR: w.tlr, AbortOnUntimestamped: w.abortUntimestamped, CM: w.cm, Seed: 2002}
		if got := observeRules(pol); got != w.obs {
			t.Errorf("tlr=%v abortUntimestamped=%v cm=%v:\n got %v\nwant %v", w.tlr, w.abortUntimestamped, w.cm, got, w.obs)
		}
	}
}

// TestKarmaRejectsTimestampBits: karma encodes seniority as karmaStampBase
// minus the bank, a wide value that a wrapped half-window comparison
// cannot order. With 6-bit stamps an engine holding 40 banked cycles would
// carry 2^40-40 and lose to a zero-karma junior at 2^40, so the engine
// refuses the pair at construction and at reset instead of silently
// inverting seniority.
func TestKarmaRejectsTimestampBits(t *testing.T) {
	bad := Policy{EnableTLR: true, CM: CMKarma, TimestampBits: 6}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s accepted CMKarma with TimestampBits", what)
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "CM") || !strings.Contains(msg, "karma") || !strings.Contains(msg, "TimestampBits") {
				t.Fatalf("%s: panic %q does not name CM=karma and TimestampBits", what, msg)
			}
		}()
		f()
	}
	mustPanic("NewEngine", func() { NewEngine(0, bad) })
	e := NewEngine(0, Policy{EnableTLR: true, CM: CMKarma})
	mustPanic("Reset", func() { e.Reset(bad) })
	// Each half of the pair on its own stays valid.
	NewEngine(0, Policy{EnableTLR: true, CM: CMTimestamp, TimestampBits: 6})
	NewEngine(0, Policy{EnableTLR: true, CM: CMKarma})
}

// TestInvalidCMPanics: an out-of-range CM is a programming error, caught
// where the engine takes its policy.
func TestInvalidCMPanics(t *testing.T) {
	for _, cm := range []CM{-1, cmCount} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEngine with CM %d should panic", int(cm))
				}
			}()
			NewEngine(0, Policy{EnableTLR: true, CM: cm})
		}()
	}
}
