// Package core implements the paper's primary contribution: the
// Transactional Lock Removal concurrency-control algorithm (Figure 3) and
// the Speculative Lock Elision policy it builds on.
//
// The package is pure policy: timestamp management, conflict resolution,
// deferral bookkeeping, misspeculation cause tracking, and the two
// predictors (elision confidence and read-modify-write collapsing). The
// mechanisms — cache state, bus transactions, marker/probe delivery — live
// in internal/coherence, which consults this engine at every decision point.
// Keeping the algorithm mechanism-free makes the paper's invariants (§4)
// directly unit- and property-testable.
package core

import (
	"fmt"

	"tlrsim/internal/memsys"
	"tlrsim/internal/stamp"
)

// Mode is the execution mode of a processor with respect to lock removal.
type Mode int

const (
	// ModeIdle: no elided lock; all requests un-timestamped.
	ModeIdle Mode = iota
	// ModeSpec: inside an optimistic lock-free transaction (TLR mode in the
	// paper; start_defer has been sent).
	ModeSpec
	// ModeFallback: speculation failed or was declined; the lock is (being)
	// acquired for real and the critical section runs non-speculatively.
	ModeFallback
)

func (m Mode) String() string {
	switch m {
	case ModeIdle:
		return "idle"
	case ModeSpec:
		return "spec"
	case ModeFallback:
		return "fallback"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Reason classifies why a transaction misspeculated or fell back.
type Reason int

const (
	ReasonNone Reason = iota
	// ReasonConflict: lost a timestamp conflict to an earlier request.
	ReasonConflict
	// ReasonUpgrade: an external writer invalidated a shared block in the
	// transaction's read set — not deferrable because no ownership (§3.1.2).
	ReasonUpgrade
	// ReasonProbe: a probe carrying an earlier timestamp arrived (§3.1.1).
	ReasonProbe
	// ReasonResource: write buffer, cache footprint, deferral queue, or
	// nesting depth exhausted (§3.3) — forces lock acquisition.
	ReasonResource
	// ReasonUntimestamped: conflicting access from outside any critical
	// section under the abort-on-data-race policy (§2.2).
	ReasonUntimestamped
	// ReasonLockWrite: some processor exposed a write to the elided lock
	// variable (its own fallback), invalidating the silent store-pair.
	ReasonLockWrite
	// ReasonExplicit: external abort, e.g. a descheduled thread (§4
	// stability: restartable critical sections).
	ReasonExplicit
	reasonCount
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonConflict:
		return "conflict"
	case ReasonUpgrade:
		return "upgrade"
	case ReasonProbe:
		return "probe"
	case ReasonResource:
		return "resource"
	case ReasonUntimestamped:
		return "untimestamped"
	case ReasonLockWrite:
		return "lock-write"
	case ReasonExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Decision is the outcome of resolving an incoming conflicting request
// against the local transaction (§2.1.1's key idea: higher priority never
// waits for lower priority).
type Decision int

const (
	// Service: the local side lost — respond with data now and restart the
	// local transaction if the block was speculatively accessed.
	Service Decision = iota
	// Defer: the local side won — retain ownership, buffer the request, and
	// answer after commit.
	Defer
)

func (d Decision) String() string {
	if d == Defer {
		return "defer"
	}
	return "service"
}

// Policy selects the scheme under evaluation and its knobs.
type Policy struct {
	// EnableTLR turns on timestamp conflict resolution and deferral. With
	// it off the engine behaves as plain SLE: every data conflict is lost
	// (serviced + restart), matching the paper's BASE+SLE configuration.
	EnableTLR bool
	// StrictTimestamps disables the §3.2 single-block relaxation — the
	// TLR-strict-ts ablation of Figure 9.
	StrictTimestamps bool
	// AbortOnUntimestamped selects the paper's first policy for data races
	// with non-critical-section accesses (trigger misspeculation) instead
	// of the default second policy (defer them as lowest priority).
	AbortOnUntimestamped bool
	// MaxDeferred bounds the deferred-request queue (Figure 5's hardware
	// queue). A full queue forces Service.
	MaxDeferred int
	// MaxElisionDepth bounds concurrently elided nested locks (Table 2: 8).
	MaxElisionDepth int
	// SLERestartLimit is how many conflict restarts plain SLE tolerates per
	// critical-section attempt before acquiring the lock. TLR ignores it.
	SLERestartLimit int
	// UpgradeViolationLimit: after this many upgrade-induced aborts on one
	// line the engine requests the line exclusively inside transactions,
	// guaranteeing forward progress without the RMW predictor (§3.1.2).
	UpgradeViolationLimit int

	// MaxRestarts, when >0, bounds how many times one critical-section
	// attempt may abort-and-retry before the engine falls back to acquiring
	// the lock, regardless of abort reason. 0 (the default) preserves the
	// paper's behaviour: TLR retries conflict-class aborts indefinitely,
	// relying on timestamp fairness for progress. The explicit cap is the
	// bounded-retries half of the fault layer's degradation contract —
	// under an adversarial abort storm every CPU still commits or reaches
	// ModeFallback within MaxRestarts attempts.
	MaxRestarts int

	// RetentionNACK selects NACK-based ownership retention instead of the
	// paper's default deferral (§3 contrasts the two): a conflict-winning
	// owner refuses the request outright and the requester retries after a
	// backoff, instead of buffering it and answering at commit. Requires no
	// deferral queue but re-injects retry traffic into the interconnect.
	RetentionNACK bool

	// TimestampBits bounds the hardware timestamp width: logical clocks
	// wrap at 2^bits and priorities compare in the half-window sense
	// (§2.1.2: "timestamp roll-over due to fixed size timestamps is easily
	// handled"). 0 means unbounded (simulation default). Not compatible
	// with CMKarma (karma stamps use a wide priority encoding).
	TimestampBits uint

	// CM selects the contention-management strategy consulted at the
	// engine's conflict-decision sites. The zero value is the paper's
	// timestamp policy, byte-identical to the pre-seam engine.
	CM CM

	// Seed is the machine seed, threaded in so policies can derive
	// deterministic jitter (CMBackoff) without a global RNG. It never
	// affects CMTimestamp.
	Seed int64
}

// DefaultPolicy returns the paper's TLR configuration.
func DefaultPolicy() Policy {
	return Policy{
		EnableTLR:             true,
		MaxDeferred:           16,
		MaxElisionDepth:       8,
		SLERestartLimit:       1,
		UpgradeViolationLimit: 2,
	}
}

// Deferred is one buffered incoming request awaiting transaction commit.
// Payload is the controller's private request record, carried through
// opaquely.
type Deferred struct {
	Line    memsys.Addr
	Stamp   stamp.Stamp
	Payload any

	// EnqueuedAt is the cycle the request was deferred (observability: the
	// deferral wait is measured when the request is finally served). Plain
	// uint64 so the policy layer stays free of simulator-time types.
	EnqueuedAt uint64
}

// Stats are the engine-level counters reported in the results section.
type Stats struct {
	Starts        uint64 // speculative transaction attempts
	Commits       uint64 // successful lock-free executions
	Aborts        [reasonCount]uint64
	Fallbacks     uint64 // lock acquisitions after giving up on elision
	Deferrals     uint64 // requests deferred
	DeferOverflow uint64 // Service forced by a full deferred queue
	RelaxedWins   uint64 // conflicts won only via the single-block relaxation
}

// TotalAborts sums aborts across reasons.
func (s *Stats) TotalAborts() uint64 {
	var n uint64
	for _, v := range s.Aborts {
		n += v
	}
	return n
}

// AbortsFor returns the abort count for one reason.
func (s *Stats) AbortsFor(r Reason) uint64 { return s.Aborts[r] }

// Reasons lists every abort reason code (for stats reporting).
func Reasons() []Reason {
	out := make([]Reason, 0, int(reasonCount))
	for r := ReasonNone; r < reasonCount; r++ {
		out = append(out, r)
	}
	return out
}

// Engine is the per-processor TLR/SLE state machine.
type Engine struct {
	cpu int
	pol Policy
	cm  ContentionPolicy // singleton for pol.CM, cached at construction/Reset
	clk *stamp.Clock

	mode        Mode
	depth       int // current lock nesting depth inside Critical frames
	elided      int // how many of those levels are elided
	specBase    int // depth of enclosing acquired levels when speculation began
	txStamp     stamp.Stamp
	txSeq       uint64
	aborted     bool
	abortReason Reason

	deferred            []Deferred
	conflictLines       map[memsys.Addr]bool
	restartsThisAttempt int

	upgradeViolations map[memsys.Addr]int

	// karma is the CMKarma priority bank: cycles lost to aborted attempts,
	// carried across restarts, reset on commit or fallback. Maintained
	// unconditionally (one add per abort); only karmaPolicy reads it.
	karma uint64

	stats Stats
}

// NewEngine returns an engine for processor cpu.
func NewEngine(cpu int, pol Policy) *Engine {
	if pol.MaxDeferred <= 0 {
		pol.MaxDeferred = 16
	}
	if pol.MaxElisionDepth <= 0 {
		pol.MaxElisionDepth = 8
	}
	e := &Engine{
		cpu:               cpu,
		pol:               pol,
		cm:                PolicyFor(pol.CM),
		clk:               stamp.NewClock(cpu),
		conflictLines:     make(map[memsys.Addr]bool),
		upgradeViolations: make(map[memsys.Addr]int),
	}
	if pol.TimestampBits > 0 {
		e.clk.SetBits(pol.TimestampBits)
	}
	return e
}

// Reset rewinds the engine to the state NewEngine(cpu, pol) constructs,
// keeping its maps and the deferred-queue backing array. The policy may
// change across a reset (the scheme is a runtime knob of machine reuse), so
// NewEngine's defaulting is reapplied to pol.
func (e *Engine) Reset(pol Policy) {
	if pol.MaxDeferred <= 0 {
		pol.MaxDeferred = 16
	}
	if pol.MaxElisionDepth <= 0 {
		pol.MaxElisionDepth = 8
	}
	e.pol = pol
	e.cm = PolicyFor(pol.CM)
	e.clk.Reset()
	e.clk.SetBits(pol.TimestampBits)
	e.mode = ModeIdle
	e.depth, e.elided, e.specBase = 0, 0, 0
	e.txStamp = stamp.Stamp{}
	e.txSeq = 0
	e.aborted = false
	e.abortReason = ReasonNone
	e.deferred = e.deferred[:0]
	clear(e.conflictLines)
	e.restartsThisAttempt = 0
	clear(e.upgradeViolations)
	e.karma = 0
	e.stats = Stats{}
}

// StampBefore compares two timestamps under the engine's configured
// timestamp width: plain comparison for unbounded clocks, half-window
// wrapped comparison for fixed-size hardware timestamps.
func (e *Engine) StampBefore(a, b stamp.Stamp) bool {
	if e.pol.TimestampBits > 0 {
		return stamp.WrappedBefore(a, b, e.pol.TimestampBits)
	}
	return a.Before(b)
}

// CPU returns the processor id.
func (e *Engine) CPU() int { return e.cpu }

// Mode returns the current execution mode.
func (e *Engine) Mode() Mode { return e.mode }

// Stats exposes the engine counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Policy returns the active policy.
func (e *Engine) Policy() Policy { return e.pol }

// Stamp returns the timestamp appended to every outgoing request while in
// ModeSpec (all requests of one transaction carry the stamp fixed at its
// start, §2.1.2), or stamp.None() outside speculation.
func (e *Engine) Stamp() stamp.Stamp {
	if e.mode == ModeSpec {
		return e.txStamp
	}
	return stamp.None()
}

// ClockValue exposes the logical clock for invariant checks.
func (e *Engine) ClockValue() uint64 { return e.clk.Value() }

// SkewClock advances the logical clock by n without a commit — fault
// injection's adversarial initial timestamp assignment. Callers apply it
// once per run, immediately after construction or Reset.
func (e *Engine) SkewClock(n uint64) { e.clk.Skew(n) }

// Speculating reports whether a transaction is in flight.
func (e *Engine) Speculating() bool { return e.mode == ModeSpec }

// Aborted reports whether the in-flight transaction has been squashed and
// must restart; the CPU polls this between operations.
func (e *Engine) Aborted() bool { return e.aborted }

// AbortReason returns why the current abort happened.
func (e *Engine) AbortReason() Reason { return e.abortReason }

// Depth returns the current Critical nesting depth.
func (e *Engine) Depth() int { return e.depth }

// CanElide reports whether another nesting level can be elided (§4:
// multiple nested locks elided if tracking hardware suffices).
func (e *Engine) CanElide() bool { return e.elided < e.pol.MaxElisionDepth }

// EnterCritical records entry to a Critical region. elide says whether the
// lock at this level was elided (speculation) or really acquired.
// Entering the first elided level starts the transaction: the timestamp is
// captured (step 1 of Figure 3) unless a restart is re-using the previous
// one (aborted state), which preserves invariant (a) of §4.
func (e *Engine) EnterCritical(elide bool) {
	e.depth++
	if !elide {
		if e.mode == ModeIdle {
			e.mode = ModeFallback
		}
		return
	}
	e.elided++
	if e.mode != ModeSpec {
		e.mode = ModeSpec
		e.specBase = e.depth - 1 // enclosing acquired levels stay entered
		e.txStamp = e.cm.AttemptStamp(e)
		e.aborted = false
		e.abortReason = ReasonNone
		e.txSeq++
		e.stats.Starts++
	}
}

// TxSeq identifies the current (or most recent) speculative transaction
// attempt; background checks capture it to detect that their transaction
// has since died.
func (e *Engine) TxSeq() uint64 { return e.txSeq }

// ExitCritical records leaving a Critical region (transaction end for the
// outermost elided level is signalled separately via Commit).
func (e *Engine) ExitCritical(elided bool) {
	if e.depth == 0 {
		panic("core: ExitCritical underflow")
	}
	e.depth--
	if elided {
		if e.elided == 0 {
			panic("core: elision underflow")
		}
		e.elided--
	}
	if e.depth == 0 && e.mode == ModeFallback {
		e.mode = ModeIdle
	}
}

// Outermost reports whether the engine is at the outermost elided level —
// the commit point.
func (e *Engine) Outermost() bool { return e.elided == 1 }

// ResolveIncoming applies the conflict-resolution rule of §2.1.1 to an
// incoming request with timestamp in, conflicting on line.
//
//   - canDefer: the local cache can retain ownership (block is in an
//     exclusively-owned state, or we are its pending owner of record).
//   - otherLineOutstanding: the transaction has an unfilled miss on some
//     other line, which is the §3.2 condition under which the single-block
//     relaxation must be abandoned because a cyclic wait becomes possible.
//
// The engine records the conflict for clock synchronisation regardless of
// the outcome.
func (e *Engine) ResolveIncoming(in stamp.Stamp, line memsys.Addr, canDefer, otherLineOutstanding bool) Decision {
	e.clk.Observe(in)
	e.conflictLines[line.Line()] = true
	if e.mode != ModeSpec || !canDefer {
		return Service
	}
	if !e.pol.EnableTLR {
		// Plain SLE identifies the conflict but has no resolution scheme:
		// it never retains ownership against a conflicting request.
		return Service
	}
	if e.deferredFull() {
		e.stats.DeferOverflow++
		return Service
	}
	return e.cm.ResolveTimestamped(e, in, line, otherLineOutstanding)
}

func (e *Engine) singleConflictLine(line memsys.Addr) bool {
	if len(e.conflictLines) > 1 {
		return false
	}
	return e.conflictLines[line]
}

func (e *Engine) deferredFull() bool { return len(e.deferred) >= e.pol.MaxDeferred }

// CanDeferMore reports deferred-queue headroom (the controller checks before
// committing to a Defer decision on untimestamped requests).
func (e *Engine) CanDeferMore() bool { return !e.deferredFull() }

// ResolveUntimestamped decides the fate of a conflicting request from
// outside any critical section (§2.2 last paragraph).
func (e *Engine) ResolveUntimestamped(line memsys.Addr, canDefer bool) Decision {
	if e.mode != ModeSpec || !canDefer || !e.pol.EnableTLR || e.pol.AbortOnUntimestamped {
		return Service
	}
	if e.deferredFull() {
		e.stats.DeferOverflow++
		return Service
	}
	return e.cm.ResolveUntimestamped(e, line)
}

// PushDeferred buffers a request the engine decided to Defer.
func (e *Engine) PushDeferred(d Deferred) {
	if e.deferredFull() {
		panic("core: PushDeferred past capacity (caller must check Decision)")
	}
	e.stats.Deferrals++
	e.deferred = append(e.deferred, d)
}

// PeekDeferred returns the buffered requests without removing them (the
// controller inspects them for the §3.2 relaxation-revocation check). The
// returned slice is a read-only view: its capacity is clamped to its
// length, so an append by the caller reallocates instead of clobbering the
// queue the engine still owns.
func (e *Engine) PeekDeferred() []Deferred {
	return e.deferred[:len(e.deferred):len(e.deferred)]
}

// ObserveConflict records a conflict detected while a request is still
// pending (no resolution possible yet): the clock synchronisation and
// conflict-line tracking still apply.
func (e *Engine) ObserveConflict(in stamp.Stamp, line memsys.Addr) {
	e.clk.Observe(in)
	e.conflictLines[line.Line()] = true
}

// TakeDeferred removes and returns all buffered requests in arrival order.
// Called at commit (step 4c of Figure 3: service waiters) and on abort
// (losers must service earlier deferred requests in order to maintain
// coherence ordering, §2.2 step 3).
func (e *Engine) TakeDeferred() []Deferred {
	out := e.deferred
	e.deferred = nil
	return out
}

// DeferredLen reports queue occupancy.
func (e *Engine) DeferredLen() int { return len(e.deferred) }

// Abort squashes the in-flight transaction. The timestamp is retained for
// the re-execution (invariant (a) of §4); only the abort flag and reason
// change. Returns false if there was nothing to abort.
func (e *Engine) Abort(r Reason) bool {
	if e.mode != ModeSpec || e.aborted {
		return false
	}
	e.aborted = true
	e.abortReason = r
	e.stats.Aborts[r]++
	e.restartsThisAttempt++
	return true
}

// AckAbort is called by the CPU when it has unwound to the restart point:
// the engine leaves ModeSpec so the retry can re-enter it. The logical
// clock is NOT advanced — invariant (a).
func (e *Engine) AckAbort() {
	if !e.aborted {
		panic("core: AckAbort without abort")
	}
	// The abort unwinds only to the outermost ELIDED level; any enclosing
	// acquired (fallback) critical sections remain entered.
	e.depth = e.specBase
	e.elided = 0
	if e.depth > 0 {
		e.mode = ModeFallback
	} else {
		e.mode = ModeIdle
	}
	e.aborted = false
	clear(e.conflictLines)
}

// ShouldFallback reports whether, after the just-acknowledged abort, the
// scheme should stop eliding and acquire the lock. The generic rules come
// first: resource-class aborts always fall back, Policy.MaxRestarts (when
// set) caps any attempt's restarts whatever the reasons, and plain SLE
// gives up after SLERestartLimit conflict restarts (it has no
// conflict-resolution scheme to make retrying fair). Past those, the
// contention policy decides: the paper's timestamp policies retry
// conflict-class aborts indefinitely, relying on timestamp fairness;
// requester-wins and backoff cap restarts because they have no fairness
// mechanism to lean on.
func (e *Engine) ShouldFallback(r Reason) bool {
	switch r {
	case ReasonResource, ReasonUntimestamped:
		return true
	}
	if e.pol.MaxRestarts > 0 && e.restartsThisAttempt >= e.pol.MaxRestarts {
		return true
	}
	if !e.pol.EnableTLR {
		return e.restartsThisAttempt > e.pol.SLERestartLimit
	}
	return e.cm.ShouldFallback(e, r)
}

// NoteFallback records a lock acquisition after giving up on elision. The
// attempt is resolved, so the karma bank resets with it.
func (e *Engine) NoteFallback() {
	e.stats.Fallbacks++
	e.karma = 0
}

// NoteAbortedWork banks cycles lost to a squashed attempt (the CPU reports
// elapsed attempt time when it acknowledges the abort). CMKarma converts
// the bank into stamp seniority on the next attempt.
func (e *Engine) NoteAbortedWork(cycles uint64) { e.karma += cycles }

// Karma reports the accumulated aborted-work bank (observability/tests).
func (e *Engine) Karma() uint64 { return e.karma }

// RetryBackoff returns the contention policy's extra delay (cycles) before
// re-dispatching the squashed attempt; 0 for every policy but CMBackoff.
func (e *Engine) RetryBackoff() uint64 { return e.cm.RetryDelay(e) }

// ContentionName returns the active contention policy's name.
func (e *Engine) ContentionName() string { return e.cm.Name() }

// Commit finishes a successful transaction: the logical clock advances
// strictly monotonically past every observed conflicting clock (invariant
// (b) of §4) and per-attempt state resets.
func (e *Engine) Commit() {
	if e.mode != ModeSpec {
		panic("core: Commit outside speculation")
	}
	if e.aborted {
		panic("core: Commit of aborted transaction")
	}
	e.clk.Success()
	if e.specBase > 0 {
		// Committed a transaction nested inside an acquired critical
		// section: the processor is still inside that lock.
		e.mode = ModeFallback
	} else {
		e.mode = ModeIdle
	}
	e.stats.Commits++
	e.restartsThisAttempt = 0
	e.karma = 0
	clear(e.conflictLines)
	clear(e.upgradeViolations)
}

// ResetAttempt clears the per-critical-section restart counter (called when
// a Critical frame finishes, success or fallback).
func (e *Engine) ResetAttempt() { e.restartsThisAttempt = 0 }

// Restarts reports how many times the in-flight critical-section attempt has
// restarted so far (observability: read before Commit resets it).
func (e *Engine) Restarts() int { return e.restartsThisAttempt }

// NoteUpgradeViolation records an upgrade-induced misspeculation on line
// and reports whether future transactional reads of that line should fetch
// it exclusively (the §3.1.2 guarantee mechanism).
func (e *Engine) NoteUpgradeViolation(line memsys.Addr) bool {
	line = line.Line()
	e.upgradeViolations[line]++
	return e.upgradeViolations[line] >= e.pol.UpgradeViolationLimit
}

// WantExclusiveRead reports whether reads of line inside transactions
// should request ownership up front due to past upgrade violations.
func (e *Engine) WantExclusiveRead(line memsys.Addr) bool {
	return e.upgradeViolations[line.Line()] >= e.pol.UpgradeViolationLimit
}
