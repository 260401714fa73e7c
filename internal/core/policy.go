package core

// Contention management as a strategy seam. The paper hard-codes one answer
// to "who wins a transactional conflict": the earlier timestamp (§2.1.1),
// with deferral as the retention mechanism. Related work argues this design
// point both ways — obstruction-free TMs give the requester the win and pay
// with livelock under contention; Karma-style managers grant priority by
// accumulated wasted work. This file extracts the decision into a
// ContentionPolicy so those alternatives run on the same protocol
// machinery and can be swept against the paper's workloads.
//
// The Engine keeps every generic guard (speculating, retainable ownership,
// TLR enabled, deferral-queue headroom, resource/limit fallback classes) in
// exactly the order the paper's implementation checks them; a policy is
// consulted only for the genuinely contended choice: defer or service a
// conflicting request, whether to give up after a conflict abort, what
// timestamp a fresh attempt carries, and how long to wait before retrying.
// Policies are stateless singletons — per-engine state they need (the karma
// ledger) lives in Engine fields so the hot path stays allocation-free.

import (
	"fmt"

	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
	"tlrsim/internal/stamp"
)

// CM names a contention-management policy. The zero value is the paper's
// timestamp policy, so a zero Policy behaves byte-identically to the
// pre-seam engine.
type CM int

const (
	// CMTimestamp is the paper's rule: earlier timestamp wins, with the
	// §3.2 single-block relaxation.
	CMTimestamp CM = iota
	// CMStrictTS is the timestamp rule without the §3.2 relaxation — the
	// TLR-strict-ts ablation of Figure 9.
	CMStrictTS
	// CMRequesterWins always services the incoming request — the
	// obstruction-free strawman. Local transactions never retain ownership
	// against a conflict, so contended progress relies on luck; a restart
	// cap bounds the livelock and converts it into fallback.
	CMRequesterWins
	// CMBackoff is requester-wins plus seeded deterministic exponential
	// backoff-with-jitter before each retry, the classic software-TM
	// contention manager.
	CMBackoff
	// CMKarma grants priority by accumulated aborted work: every aborted
	// cycle raises the transaction's priority for its next attempt, so the
	// biggest loser eventually outranks everyone and commits.
	CMKarma
	cmCount
)

func (c CM) String() string {
	switch c {
	case CMTimestamp:
		return "timestamp"
	case CMStrictTS:
		return "strict-ts"
	case CMRequesterWins:
		return "requester-wins"
	case CMBackoff:
		return "backoff"
	case CMKarma:
		return "karma"
	default:
		return fmt.Sprintf("CM(%d)", int(c))
	}
}

// ParseCM maps a policy name (as accepted by tlrsim -cm) to its CM.
func ParseCM(s string) (CM, error) {
	for c := CM(0); c < cmCount; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown contention policy %q (want timestamp, strict-ts, requester-wins, backoff, or karma)", s)
}

// CMs lists every contention policy (for sweeps).
func CMs() []CM {
	out := make([]CM, 0, int(cmCount))
	for c := CM(0); c < cmCount; c++ {
		out = append(out, c)
	}
	return out
}

// ContentionPolicy is the conflict-resolution strategy consulted by the
// engine at its three decision sites. Implementations are stateless
// singletons operating on the engine's state; they run only after the
// engine's generic guards (mode, ownership retainability, EnableTLR,
// deferral headroom, resource-class fallback, MaxRestarts, SLE limit) have
// passed, so every policy inherits the same correctness envelope.
type ContentionPolicy interface {
	// Name is the stable identifier (ParseCM's vocabulary).
	Name() string
	// ResolveTimestamped decides a conflicting timestamped request the
	// local transaction could defer.
	ResolveTimestamped(e *Engine, in stamp.Stamp, line memsys.Addr, otherLineOutstanding bool) Decision
	// ResolveUntimestamped decides a deferrable conflicting request from
	// outside any critical section (§2.2).
	ResolveUntimestamped(e *Engine, line memsys.Addr) Decision
	// ShouldFallback reports whether to acquire the lock after an abort the
	// generic rules would retry.
	ShouldFallback(e *Engine, r Reason) bool
	// AttemptStamp is the timestamp a fresh transaction attempt carries
	// (step 1 of Figure 3). It must stay fixed within one attempt.
	AttemptStamp(e *Engine) stamp.Stamp
	// RetryDelay is extra cycles (beyond the machine's restart penalty)
	// before a squashed attempt re-dispatches.
	RetryDelay(e *Engine) uint64
}

// contentionPolicies maps CM to its singleton. Indexed on the hot path;
// the table and its entries are immutable after init.
var contentionPolicies = [cmCount]ContentionPolicy{
	CMTimestamp:     timestampPolicy{},
	CMStrictTS:      strictTSPolicy{},
	CMRequesterWins: requesterWinsPolicy{},
	CMBackoff:       backoffPolicy{},
	CMKarma:         karmaPolicy{},
}

// PolicyFor returns the singleton strategy for cm.
func PolicyFor(cm CM) ContentionPolicy {
	if cm < 0 || cm >= cmCount {
		panic(fmt.Sprintf("core: invalid contention policy %d", int(cm)))
	}
	return contentionPolicies[cm]
}

// timestampPolicy is the paper's rule (§2.1.1 + §3.2): the earlier
// timestamp wins; a later transaction may still win when the conflict is
// confined to a single block with no other miss outstanding (deadlock is
// then impossible). strictTSPolicy is the same rule without the relaxation.
type timestampPolicy struct{}

func (timestampPolicy) Name() string { return CMTimestamp.String() }

func (timestampPolicy) ResolveTimestamped(e *Engine, in stamp.Stamp, line memsys.Addr, otherLineOutstanding bool) Decision {
	if e.StampBefore(e.txStamp, in) {
		// Local transaction is earlier: it wins and the requester waits.
		return Defer
	}
	// Local transaction is later. Strictly we must lose, but if only this
	// single block is under conflict and no other miss is outstanding,
	// deadlock is impossible (the coherence chain head is stable) and the
	// protocol's own request queue provides the ordering (§3.2).
	if !otherLineOutstanding && e.singleConflictLine(line.Line()) {
		e.stats.RelaxedWins++
		return Defer
	}
	return Service
}

func (timestampPolicy) ResolveUntimestamped(e *Engine, line memsys.Addr) Decision {
	// Treated as carrying the latest timestamp in the system: always
	// deferrable, ordered after the current transaction.
	return Defer
}

func (timestampPolicy) ShouldFallback(e *Engine, r Reason) bool { return false }

func (timestampPolicy) AttemptStamp(e *Engine) stamp.Stamp { return e.clk.Current() }

func (timestampPolicy) RetryDelay(e *Engine) uint64 { return 0 }

// strictTSPolicy is timestampPolicy without the §3.2 relaxation: pure
// timestamp order, the Figure 9 TLR-strict-ts ablation.
type strictTSPolicy struct{}

func (strictTSPolicy) Name() string { return CMStrictTS.String() }

func (strictTSPolicy) ResolveTimestamped(e *Engine, in stamp.Stamp, line memsys.Addr, otherLineOutstanding bool) Decision {
	if e.StampBefore(e.txStamp, in) {
		return Defer
	}
	return Service
}

func (strictTSPolicy) ResolveUntimestamped(e *Engine, line memsys.Addr) Decision { return Defer }

func (strictTSPolicy) ShouldFallback(e *Engine, r Reason) bool { return false }

func (strictTSPolicy) AttemptStamp(e *Engine) stamp.Stamp { return e.clk.Current() }

func (strictTSPolicy) RetryDelay(e *Engine) uint64 { return 0 }

// requesterWinsRestartLimit bounds the conflict restarts one attempt
// tolerates under requester-wins (and, more generously, backoff) before
// acquiring the lock. Requester-wins has no fairness mechanism at all —
// under symmetric contention every conflicting pair mutually aborts — so
// without a cap the policy livelocks; with it, livelock converts into a
// measurable fallback rate.
const (
	requesterWinsRestartLimit = 8
	backoffRestartLimit       = 16
)

// requesterWinsPolicy always services the incoming request: the local
// transaction never retains ownership against a conflict. This is the
// obstruction-free strawman — any single transaction running alone
// finishes, but contended transactions make progress only by luck.
type requesterWinsPolicy struct{}

func (requesterWinsPolicy) Name() string { return CMRequesterWins.String() }

func (requesterWinsPolicy) ResolveTimestamped(e *Engine, in stamp.Stamp, line memsys.Addr, otherLineOutstanding bool) Decision {
	return Service
}

func (requesterWinsPolicy) ResolveUntimestamped(e *Engine, line memsys.Addr) Decision {
	return Service
}

func (requesterWinsPolicy) ShouldFallback(e *Engine, r Reason) bool {
	return e.restartsThisAttempt >= requesterWinsRestartLimit
}

func (requesterWinsPolicy) AttemptStamp(e *Engine) stamp.Stamp { return e.clk.Current() }

func (requesterWinsPolicy) RetryDelay(e *Engine) uint64 { return 0 }

// backoffPolicy is requester-wins with seeded deterministic exponential
// backoff-with-jitter before each retry: conflicts still always lose, but
// the loser waits 2^restarts (capped) plus a per-(seed,cpu,restart) jitter
// before trying again, desynchronising contenders instead of letting them
// mutually abort in lockstep.
type backoffPolicy struct{}

// backoffBase/backoffMaxShift bound the retry delay to
// [backoffBase, 2*backoffBase<<backoffMaxShift) cycles — 32 up to ~8k,
// a few lock-handoff times at Table 2 latencies.
const (
	backoffBase     = 32
	backoffMaxShift = 7
)

func (backoffPolicy) Name() string { return CMBackoff.String() }

func (backoffPolicy) ResolveTimestamped(e *Engine, in stamp.Stamp, line memsys.Addr, otherLineOutstanding bool) Decision {
	return Service
}

func (backoffPolicy) ResolveUntimestamped(e *Engine, line memsys.Addr) Decision { return Service }

func (backoffPolicy) ShouldFallback(e *Engine, r Reason) bool {
	return e.restartsThisAttempt >= backoffRestartLimit
}

func (backoffPolicy) AttemptStamp(e *Engine) stamp.Stamp { return e.clk.Current() }

func (backoffPolicy) RetryDelay(e *Engine) uint64 {
	return jitteredDelay(e, backoffBase, backoffMaxShift)
}

// jitteredDelay is the seeded exponential backoff curve shared by the
// backoff and karma policies: base<<min(restarts-1, maxShift) plus a
// deterministic jitter in [0, period) derived from the machine seed, the
// CPU, and the restart ordinal — the StartJitter idiom, no global RNG.
func jitteredDelay(e *Engine, base uint64, maxShift uint) uint64 {
	r := e.restartsThisAttempt
	if r < 1 {
		r = 1
	}
	shift := uint(r - 1)
	if shift > maxShift {
		shift = maxShift
	}
	d := base << shift
	j := sim.Mix64(uint64(e.pol.Seed)*0x9e3779b97f4a7c15 + uint64(e.cpu+1)*0xbf58476d1ce4e5b9 + uint64(r) + 0x9e3779b97f4a7c15)
	return d + j%d
}

// karmaPolicy grants priority by accumulated aborted work: every cycle a
// transaction loses to an abort is banked (Engine.NoteAbortedWork) and
// carried across restarts, and each fresh attempt's timestamp encodes the
// bank as seniority — more karma, earlier stamp. Encoding priority into the
// stamp means every stamp comparison in the protocol (owner resolution,
// probe chasing, chain forwarding, deadlock-recovery victim selection) sees
// the same total order, with no second priority channel to keep coherent.
// The bank resets on commit or fallback. The §3.2 relaxation is disabled:
// it would let a junior transaction win on topology, inverting the karma
// order it exists to enforce. Not supported with Policy.TimestampBits
// (karma stamps use the wide encoding below).
//
// Unlike the timestamp policies, karma restarts pay a small jittered delay
// (karmaBackoffBase, capped at karmaBackoffMaxShift). Without it the policy
// livelocks: karma seniority is not stable the way a retained timestamp is —
// each abort banks the loser's invested cycles, which outbids the winner's
// static karma, so contenders that restart in lockstep leapfrog each other's
// priority and mutually abort forever (five CPUs on one hot lock did exactly
// that, ~9.6k aborts each with zero commits, before the watchdog fired —
// pinned by TestKarmaServiceNoLivelock). The delay staggers restarts so the
// current senior gets an unpreempted window to commit, which settles its
// bank and shrinks the contender set.
type karmaPolicy struct{}

// karmaStampBase is the stamp clock of a zero-karma attempt; karma is
// subtracted from it, so higher karma compares earlier. Large enough that
// no realistic aborted-work sum (cycles per attempt x restarts) reaches
// zero, small enough to stay far from uint64 wraparound when clocks
// Observe each other.
const karmaStampBase = uint64(1) << 40

// karmaBackoffBase/karmaBackoffMaxShift bound karma's anti-livelock retry
// delay to [16, 2*16<<6) cycles — deliberately below the backoff policy's
// curve: karma wants restart desynchronisation, not idle-wait contention
// management (priority does that part).
const (
	karmaBackoffBase     = 16
	karmaBackoffMaxShift = 6
)

func (karmaPolicy) Name() string { return CMKarma.String() }

func (karmaPolicy) ResolveTimestamped(e *Engine, in stamp.Stamp, line memsys.Addr, otherLineOutstanding bool) Decision {
	if e.StampBefore(e.txStamp, in) {
		return Defer
	}
	return Service
}

func (karmaPolicy) ResolveUntimestamped(e *Engine, line memsys.Addr) Decision { return Defer }

func (karmaPolicy) ShouldFallback(e *Engine, r Reason) bool { return false }

func (karmaPolicy) AttemptStamp(e *Engine) stamp.Stamp {
	k := e.karma
	if k > karmaStampBase-1 {
		k = karmaStampBase - 1
	}
	return stamp.New(karmaStampBase-k, e.cpu)
}

func (karmaPolicy) RetryDelay(e *Engine) uint64 {
	return jitteredDelay(e, karmaBackoffBase, karmaBackoffMaxShift)
}
