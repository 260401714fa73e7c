package core

// Contention management as data. The paper hard-codes one answer to "who
// wins a transactional conflict": the earlier timestamp (§2.1.1), with
// deferral as the retention mechanism and the §3.2 single-block
// relaxation. Related work argues this design point both ways:
// obstruction-free TMs give the requester the win and pay with livelock
// under contention; Karma-style managers grant priority by accumulated
// wasted work. Each of these policies differs from the paper only in a few
// parameters, so each is one cmRule row, and the engine reads its row at
// the decision sites.
//
// The Engine keeps every generic guard (speculating, retainable ownership,
// TLR enabled, deferral-queue headroom, resource/limit fallback classes) in
// exactly the order the paper's implementation checks them; the row is
// read only for the genuinely contended choice: defer or service a
// conflicting request, whether to give up after a conflict abort, what
// timestamp a fresh attempt carries, and how long to wait before retrying.
// Per-engine state a row needs (restart counts, the karma bank) lives in
// Engine fields, so the hot path stays allocation-free.

import "fmt"

// CM names a contention-management policy. The zero value is the paper's
// timestamp policy, so a zero Policy is the paper's engine.
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

// cmRule is one contention-management policy as data.
type cmRule struct {
	// ordered: the earlier timestamp wins a conflict and untimestamped
	// requests defer (§2.1.1, §2.2). Otherwise the requester always wins
	// and the local transaction never retains ownership.
	ordered bool
	// relaxed: a later transaction still wins when the conflict is confined
	// to a single block with no other miss outstanding (§3.2).
	relaxed bool
	// karma: an attempt's stamp encodes the karma bank as seniority
	// instead of carrying the logical clock.
	karma bool
	// restartLimit is how many conflict restarts one attempt tolerates
	// before acquiring the lock; 0 retries indefinitely.
	restartLimit int
	// backoffBase and backoffShift give the seeded retry-delay curve
	// (sim.Backoff); a zero base adds no delay.
	backoffBase  uint64
	backoffShift uint
}

// cmRules holds one row per policy, indexed by CM; each CM constant says
// what its row does. Karma is ordered by stamp but not relaxed: the §3.2
// relaxation would let a junior transaction win on topology, inverting the
// karma order it exists to enforce.
var cmRules = [cmCount]cmRule{
	CMTimestamp:     {ordered: true, relaxed: true},
	CMStrictTS:      {ordered: true},
	CMRequesterWins: {restartLimit: requesterWinsRestartLimit},
	CMBackoff:       {restartLimit: backoffRestartLimit, backoffBase: backoffBase, backoffShift: backoffMaxShift},
	CMKarma:         {ordered: true, karma: true, backoffBase: karmaBackoffBase, backoffShift: karmaBackoffMaxShift},
}

// ruleFor returns pol's row. An out-of-range CM panics, and so does karma
// with bounded timestamps: a karma stamp is karmaStampBase minus the bank,
// which a wrapped half-window comparison cannot order, so seniority would
// silently invert.
func ruleFor(pol Policy) cmRule {
	if pol.CM < 0 || pol.CM >= cmCount {
		panic(fmt.Sprintf("core: invalid contention policy %d", int(pol.CM)))
	}
	r := cmRules[pol.CM]
	if r.karma && pol.TimestampBits > 0 {
		panic(fmt.Sprintf("core: Policy.CM %v does not support Policy.TimestampBits %d (karma stamps need the unbounded encoding)", pol.CM, pol.TimestampBits))
	}
	return r
}

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

// backoffBase/backoffMaxShift bound the backoff policy's retry delay to
// [backoffBase, 2*backoffBase<<backoffMaxShift) cycles — 32 up to ~8k,
// a few lock-handoff times at Table 2 latencies.
const (
	backoffBase     = 32
	backoffMaxShift = 7
)

// karmaStampBase is the stamp clock of a zero-karma attempt. Under karma
// every cycle a transaction loses to an abort is banked
// (Engine.NoteAbortedWork) and carried across restarts, and each fresh
// attempt's stamp is this base minus the bank, so more karma compares
// earlier. Encoding priority into the stamp means every stamp comparison
// in the protocol (owner resolution, probe chasing, chain forwarding,
// deadlock-recovery victim selection) sees the same total order, with no
// second priority channel to keep coherent. The bank resets on commit or
// fallback. The base is large enough that no realistic aborted-work sum
// (cycles per attempt x restarts) reaches zero, and small enough to stay
// far from uint64 wraparound when clocks Observe each other.
const karmaStampBase = uint64(1) << 40

// karmaBackoffBase/karmaBackoffMaxShift bound karma's anti-livelock retry
// delay to [16, 2*16<<6) cycles — deliberately below the backoff policy's
// curve: karma wants restart desynchronisation, not idle-wait contention
// management (priority does that part).
//
// Without it karma livelocks: karma seniority is not stable the way a
// retained timestamp is — each abort banks the loser's invested cycles,
// which outbids the winner's static karma, so contenders that restart in
// lockstep leapfrog each other's priority and mutually abort forever (five
// CPUs on one hot lock did exactly that, ~9.6k aborts each with zero
// commits, before the watchdog fired — pinned by
// TestKarmaServiceNoLivelock). The delay staggers restarts so the current
// senior gets an unpreempted window to commit, which settles its bank and
// shrinks the contender set.
const (
	karmaBackoffBase     = 16
	karmaBackoffMaxShift = 6
)
