package proc

import (
	"fmt"
	"math/rand"

	"tlrsim/internal/coherence"
	"tlrsim/internal/core"
	"tlrsim/internal/sim"
	"tlrsim/internal/trace"
)

// Stats are per-CPU execution counters. Stall cycles are split into
// lock-variable and other contributions, matching the breakdown of the
// paper's Figure 11 (accounting is per blocking operation: the operation
// that stalls the processor is charged the stall).
type Stats struct {
	Ops       uint64
	Busy      uint64
	LockStall uint64
	DataStall uint64
	Finish    sim.Time
}

// maxInline caps the depth of the cache-hit fast path's inline op chaining,
// bounding both host stack growth and the distance the machine can run
// between returns to the top-level event loop (where the livelock guard is
// checked).
const maxInline = 256

// CPU drives one thread against the memory system.
type CPU struct {
	id   int
	m    *Machine
	ctrl *coherence.Controller
	eng  *core.Engine

	elide *core.ElisionPredictor
	rmw   *core.RMWPredictor

	// src feeds the CPU its thread's operations: a coroutine thread (*TC)
	// or a scripted litmus state machine.
	src    opSource
	done   bool
	finish sim.Time

	// rng is the CPU's random source, kept across runs and Reset: each
	// run's thread re-seeds it on first use (TC.Rand) instead of
	// allocating a new one.
	rng *rand.Rand

	seq      uint64
	opActive bool
	opStart  sim.Time

	// curOp is the CPU's one op slot. The thread writes its next operation
	// here (opSource.next) once the previous one has completed, and it stays
	// in place through its issue (or stall-resume) event, its folded compute
	// span (curOp.lead > 0) and its execution (opActive), so no stage copies
	// it. Completion paths read it for accounting instead of capturing it in
	// a closure. At most one issue event is outstanding per CPU: the thread
	// is blocked until the op completes, and no completion can be pending
	// while an issue is.
	curOp op

	inlineDepth int

	// pendingFallback forces the next Critical attempt on this CPU to
	// acquire the lock (set after resource-class misspeculations and SLE's
	// restart limit).
	pendingFallback bool

	// waitFree makes the next elision attempt wait until the lock is
	// observed free (set after a predicted-free attempt found it held).
	waitFree bool

	// commitLockBound records whether the in-flight TxEnd was waiting on
	// the elided lock line's fetch (stall attribution: the instruction that
	// stalls commit is charged, Fig. 11 accounting).
	commitLockBound bool

	// commitRetries is the in-flight TxEnd's restart count, read before
	// TryCommit because a commit clears it (ResetAttempt).
	commitRetries uint64

	// lockEntered is the wait-free elision path's stage: false while the
	// TxBegin observes the lock word, true once it has entered speculation
	// and re-reads the word.
	lockEntered bool

	// sink completes the controller operations an op issues, tagged with
	// the op's seq; lockCheck completes the background lock-word check of a
	// predicted-free elision, tagged with the transaction's TxSeq. Both are
	// bound once, so issuing an operation allocates nothing.
	sink      coherence.Sink
	lockCheck coherence.Sink

	// stalledUntil models the thread being descheduled: no operation
	// executes before this cycle (§4 stability experiments).
	stalledUntil sim.Time

	// specStartAt is when the in-flight speculative attempt entered
	// speculation; on abort the elapsed span is banked as the attempt's
	// lost work (the karma contention policy's priority currency).
	specStartAt sim.Time

	// critArmed spans the outermost critical section for observability:
	// armed at the first dispatch of the outermost Critical frame, disarmed
	// at its completion, surviving restarts in between so the recorded hold
	// time includes them. Only meaningful when metrics are enabled.
	critArmed bool
	critStart sim.Time
	critLock  *Lock

	lastOp opKind

	// prog is the forward-progress ledger read by the watchdog and rendered
	// into StallErrors (stall.go).
	prog cpuProgress

	stats Stats
}

func newCPU(m *Machine, id int, ctrl *coherence.Controller, eng *core.Engine) *CPU {
	cpu := &CPU{
		id:    id,
		m:     m,
		ctrl:  ctrl,
		eng:   eng,
		elide: core.NewElisionPredictor(m.cfg.ElisionEntries),
		rmw:   core.NewRMWPredictor(m.cfg.RMWEntries),
	}
	cpu.sink = cpu.opDone
	cpu.lockCheck = cpu.lockWordChecked
	ctrl.OnAbort = cpu.onAbort
	return cpu
}

// ID returns the processor id.
func (cpu *CPU) ID() int { return cpu.id }

// Stats returns this CPU's counters.
func (cpu *CPU) Stats() *Stats { return &cpu.stats }

// Engine returns the attached TLR/SLE engine (for result reporting).
func (cpu *CPU) Engine() *core.Engine { return cpu.eng }

// Ctrl returns the cache controller (for result reporting).
func (cpu *CPU) Ctrl() *coherence.Controller { return cpu.ctrl }

// Done reports whether the thread has finished.
func (cpu *CPU) Done() bool { return cpu.done }

// start attaches the thread and schedules its first fetch, delay cycles from
// now (Config.StartJitter scheduling perturbation; 0 preserves the
// unperturbed schedule exactly).
func (cpu *CPU) start(src opSource, delay uint64) {
	// A machine may Run more than once (consecutive phases): clear the
	// previous run's completion flag so the run loop, the event budget, and
	// the deadlock detector see this thread as live again.
	cpu.done = false
	cpu.m.live++
	cpu.src = src
	cpu.m.K.AtCall(cpu.m.K.Now()+sim.Time(delay), firstFetchEvent, cpu, nil, 0)
}

func firstFetchEvent(recv, _ any, _ uint64) {
	recv.(*CPU).fetchNext(result{}, true)
}

// issueEvent starts the op waiting in curOp (the one-cycle issue stage, or
// a stall-quantum resume).
func issueEvent(recv, _ any, _ uint64) {
	recv.(*CPU).startOp()
}

// fetchNext hands the thread r, the reply to its previous operation (zero
// before the first), and issues the operation it writes into curOp, or
// retires the thread. inlineOK marks calls made at an event tail, where the
// issue event may be run inline.
func (cpu *CPU) fetchNext(r result, inlineOK bool) {
	if !cpu.src.next(r, &cpu.curOp) {
		cpu.threadDone()
		return
	}
	cpu.stats.Ops++
	cpu.issueOp(inlineOK)
}

func (cpu *CPU) threadDone() {
	cpu.done = true
	cpu.m.live--
	cpu.finish = cpu.m.K.Now()
	cpu.stats.Finish = cpu.finish
	cpu.noteProgress(progressDone)
}

// issueOp runs curOp through the one-cycle issue stage. When the issue
// event would be the very next event to fire anyway, the queue round-trip is
// skipped entirely (sim.Kernel.TryAdvance) and the op starts inline —
// identical simulated time, identical ordering, no event queue traffic.
func (cpu *CPU) issueOp(inlineOK bool) {
	k := cpu.m.K
	if inlineOK && cpu.inlineDepth < maxInline && k.TryAdvance(k.Now()+1) {
		cpu.inlineDepth++
		cpu.startOp()
		cpu.inlineDepth--
		return
	}
	k.AfterCall(1, issueEvent, cpu, nil, 0)
}

// startOp executes curOp. A completion may run the thread on inline and
// overwrite curOp with the next op, so no case reads o after the call that
// completes it.
func (cpu *CPU) startOp() {
	if now := cpu.m.K.Now(); now < cpu.stalledUntil {
		// Descheduled: resume the operation when the quantum ends.
		cpu.m.K.AtCall(cpu.stalledUntil, issueEvent, cpu, nil, 0)
		return
	}
	o := &cpu.curOp
	if o.lead > 0 {
		cpu.startLead()
		return
	}
	cpu.lastOp = o.kind
	cpu.seq++
	cpu.opActive = true
	cpu.opStart = cpu.m.K.Now()

	// A squashed transaction's thread may issue a few more operations while
	// it unwinds to the restart point (the abort flag is only observable at
	// operation boundaries). None of them may touch machine state — a store
	// here would pollute the write buffer of the NEXT transaction attempt.
	if cpu.eng.Aborted() && o.kind != opTxBegin {
		cpu.finishOp(result{aborted: true})
		return
	}

	// Injected transaction squash at an operation boundary: models an
	// asynchronous abort (interrupt, capacity glitch) hitting a live
	// speculative region. The engine's own restart/fallback policy takes
	// over from here, exactly as for an organic misspeculation. The Aborted
	// guard matters: a squashed-but-unacknowledged transaction still reports
	// Speculating, and re-aborting it is a no-op that would leave the op
	// permanently incomplete.
	if cpu.eng.Speculating() && !cpu.eng.Aborted() {
		if r, ok := cpu.m.faults.ForceAbort(); ok {
			cpu.ctrl.AbortTxn(r)
			// onAbort completed the op; nothing more to do.
			return
		}
	}

	switch o.kind {
	case opLoad:
		wantExcl := false
		if cpu.useRMW() && o.site != 0 && cpu.eng.Depth() > 0 {
			wantExcl = cpu.rmw.PredictExclusive(int(o.site))
			cpu.rmw.NoteLoad(int(o.site), o.addr)
		}
		if v, hit := cpu.ctrl.LoadHit(o.addr, wantExcl); hit {
			cpu.finishOp(result{val: v})
			return
		}
		cpu.ctrl.LoadMiss(o.addr, wantExcl, cpu.sink, cpu.seq)
	case opStore:
		if cpu.useRMW() && cpu.eng.Depth() > 0 {
			cpu.rmw.NoteStore(o.addr)
		}
		switch cpu.ctrl.StoreFast(o.addr, o.val) {
		case coherence.StoreDone:
			cpu.finishOp(result{})
		case coherence.StoreAborted:
			// onAbort already squashed the op.
		default:
			cpu.ctrl.StoreMiss(o.addr, o.val, cpu.sink, cpu.seq)
		}
	case opLL:
		cpu.ctrl.LL(o.addr, cpu.sink, cpu.seq)
	case opSC:
		cpu.ctrl.SC(o.addr, o.val, cpu.sink, cpu.seq)
	case opSwap:
		cpu.ctrl.Swap(o.addr, o.val, cpu.sink, cpu.seq)
	case opCAS:
		cpu.ctrl.CAS(o.addr, o.arg, o.val, cpu.sink, cpu.seq)
	case opFetchAdd:
		cpu.ctrl.FetchAdd(o.addr, o.val, cpu.sink, cpu.seq)
	case opSpin:
		cpu.spin(cpu.seq)
	case opCompute:
		cpu.m.K.AfterCall(o.arg, computeDoneEvent, cpu, nil, cpu.seq)
	case opTxBegin:
		if cpu.m.mx != nil && !cpu.critArmed && o.frames == 0 {
			cpu.critArmed = true
			cpu.critStart = cpu.m.K.Now()
			cpu.critLock = o.lock
			cpu.m.mx.SetCurrent(cpu.id, o.lock.prof)
		}
		cpu.txBegin(cpu.seq)
	case opTxEnd:
		cpu.txEnd(cpu.seq)
	case opCSEnter:
		cpu.finishOp(result{ok: true})
	case opCSExit:
		cpu.eng.ExitCritical(false)
		if cpu.eng.Depth() == 0 {
			cpu.rmw.EndSection()
			cpu.eng.ResetAttempt()
			cpu.noteCritDone(o.lock)
			cpu.noteProgress(progressExit)
		}
		cpu.finishOp(result{ok: true})
	case opUnelidable:
		if cpu.eng.Speculating() {
			cpu.ctrl.AbortTxn(core.ReasonResource)
			// onAbort completed the op; nothing more to do.
			return
		}
		cpu.finishOp(result{ok: true})
	}
}

// startLead runs the pure-compute span folded into curOp (op batching: the
// span was never an op of its own). It behaves exactly like the opCompute
// the thread would have issued — same events, same accounting, same abort
// semantics — then re-issues the carried operation through the normal issue
// stage. While the span runs, curOp.lead > 0 tells account that the CPU's
// active op is the span.
func (cpu *CPU) startLead() {
	cpu.lastOp = opCompute
	cpu.seq++
	cpu.opActive = true
	cpu.opStart = cpu.m.K.Now()
	if cpu.eng.Aborted() {
		// The span is part of the squashed region: discard it and fail the
		// carried op, exactly as the unbatched compute op would have.
		cpu.finishOp(result{aborted: true})
		return
	}
	cpu.m.K.AfterCall(cpu.curOp.lead, leadDoneEvent, cpu, nil, cpu.seq)
}

// leadDoneEvent retires a folded compute span as the compute op it stands
// for, then issues the carried operation.
func leadDoneEvent(recv, _ any, seq uint64) {
	cpu := recv.(*CPU)
	if cpu.seq != seq || !cpu.opActive {
		return // the span was squashed by an abort
	}
	cpu.opActive = false
	cpu.account(uint64(cpu.m.K.Now() - cpu.opStart))
	cpu.stats.Ops++
	cpu.curOp.lead = 0
	cpu.issueOp(true)
}

// computeDoneEvent completes an explicit opCompute.
func computeDoneEvent(recv, _ any, seq uint64) {
	cpu := recv.(*CPU)
	if cpu.seq != seq || !cpu.opActive {
		return
	}
	cpu.finishOp(result{})
}

// finishOp completes the current op synchronously at the tail of its issue
// event: the result is delivered and the next op may start inline. Callers
// must be at an event tail (nothing else left to run in the current event).
func (cpu *CPU) finishOp(r result) {
	cpu.opActive = false
	cpu.account(uint64(cpu.m.K.Now() - cpu.opStart))
	cpu.fetchNext(r, true)
}

// completeOp completes op seq from an arbitrary (possibly deep) kernel
// context — a fill waiter, an abort, a commit callback. Stale completions
// are dropped; the next op goes through the event queue, preserving the
// ordering the non-tail context requires.
func (cpu *CPU) completeOp(seq uint64, r result) {
	if cpu.stale(seq) {
		return // stale completion (op already finished, e.g. by abort)
	}
	cpu.opActive = false
	cpu.account(uint64(cpu.m.K.Now() - cpu.opStart))
	cpu.fetchNext(r, false)
}

// stale reports whether op seq is no longer the CPU's live operation: it
// completed, or an abort squashed it and the thread moved on.
func (cpu *CPU) stale(seq uint64) bool { return cpu.seq != seq || !cpu.opActive }

// opDone is the CPU's completion sink (cpu.sink): every controller
// operation an op issues reports here, tagged with the op's seq. A stale
// completion is dropped; otherwise the op's kind says what it continues.
func (cpu *CPU) opDone(seq, v uint64, ok bool) {
	if cpu.stale(seq) {
		return
	}
	switch cpu.curOp.kind {
	case opSpin:
		cpu.spinLoaded(seq, v, ok)
	case opTxBegin:
		cpu.lockLoaded(seq, v, ok)
	case opTxEnd:
		cpu.committed(seq, ok)
	default:
		cpu.completeOp(seq, result{val: v, aborted: !ok})
	}
}

// onAbort squashes whatever operation the thread is blocked on so it can
// unwind to the restart point.
func (cpu *CPU) onAbort(core.Reason) {
	if cpu.opActive {
		cpu.completeOp(cpu.seq, result{aborted: true})
	}
}

func (cpu *CPU) useRMW() bool { return cpu.m.cfg.UseRMWPredictor }

// noteCritDone closes the observability span opened at the outermost
// Critical dispatch. Gated on the armed lock so nested frames under other
// locks pass through untouched.
func (cpu *CPU) noteCritDone(l *Lock) {
	if !cpu.critArmed || cpu.critLock != l {
		return
	}
	cpu.critArmed = false
	cpu.critLock = nil
	cpu.m.mx.NoteCritDone(cpu.id, l.prof, uint64(cpu.m.K.Now()-cpu.critStart))
	cpu.m.mx.SetCurrent(cpu.id, nil)
}

// spin implements the test&test&set-style local spin: re-check only when
// the line's visibility changes.
func (cpu *CPU) spin(seq uint64) {
	cpu.ctrl.Load(cpu.curOp.addr, false, cpu.sink, seq)
}

// spinLoaded completes the spin once the word satisfies its predicate, and
// otherwise waits for the line to change.
func (cpu *CPU) spinLoaded(seq, v uint64, ok bool) {
	if !ok {
		cpu.completeOp(seq, result{aborted: true})
		return
	}
	if cpu.curOp.pred(v) {
		cpu.completeOp(seq, result{val: v})
		return
	}
	cpu.ctrl.SubscribeLine(cpu.curOp.addr, lineChanged, cpu, seq)
}

// lineChanged is the spin-wait subscription of op seq (a spin, or a
// TxBegin waiting for the lock to be free): the re-check runs SpinRecheck
// cycles after the line changes.
func lineChanged(recv, _ any, seq uint64) {
	cpu := recv.(*CPU)
	cpu.m.K.AfterCall(cpu.m.cfg.SpinRecheck, recheckEvent, cpu, nil, seq)
}

// recheckEvent re-reads the word a spin-wait is waiting on.
func recheckEvent(recv, _ any, seq uint64) {
	cpu := recv.(*CPU)
	if cpu.stale(seq) {
		return // the operation was already squashed by an abort
	}
	if cpu.curOp.kind == opSpin {
		cpu.spin(seq)
		return
	}
	cpu.awaitFreeLock(seq)
}

// txBegin decides how a Critical section executes: elide (speculate) or
// acquire, per scheme, predictor confidence, nesting budget, and pending
// fallback state. Restart penalties are charged here, at the re-dispatch of
// a squashed transaction.
func (cpu *CPU) txBegin(seq uint64) {
	o := &cpu.curOp
	if cpu.eng.Aborted() {
		if o.frames > 0 {
			// A NESTED Critical inside the squashed transaction: the abort
			// belongs to an enclosing elided frame, so this thread must
			// keep unwinding to the restart point — only the outermost
			// frame's retry may acknowledge the abort.
			cpu.completeOp(seq, result{aborted: true})
			return
		}
		reason := cpu.eng.AbortReason()
		cpu.noteAbort(reason)
		cpu.eng.NoteAbortedWork(uint64(cpu.m.K.Now() - cpu.specStartAt))
		cpu.eng.AckAbort()
		if cpu.eng.ShouldFallback(reason) {
			cpu.pendingFallback = true
			cpu.elide.Failure(o.lock.ID)
		}
		// RetryBackoff is the contention policy's extra delay (0 for every
		// policy but backoff, so the default schedule is untouched).
		cpu.m.K.AfterCall(cpu.m.cfg.RestartPenalty+cpu.eng.RetryBackoff(), restartEvent, cpu, nil, seq)
		return
	}
	cpu.txBeginDispatch(seq)
}

// restartEvent re-dispatches a squashed transaction's TxBegin once the
// restart penalty has passed.
func restartEvent(recv, _ any, seq uint64) {
	cpu := recv.(*CPU)
	if cpu.stale(seq) {
		return
	}
	cpu.txBeginDispatch(seq)
}

func (cpu *CPU) txBeginDispatch(seq uint64) {
	// Transaction/critical-section boundaries fence the TSO store buffer:
	// prior plain stores reach their global order before the checkpoint.
	cpu.ctrl.Fence(fencedEvent, cpu, seq)
}

// fencedEvent resumes a TxBegin once the store buffer has drained.
func fencedEvent(recv, _ any, seq uint64) {
	cpu := recv.(*CPU)
	if cpu.stale(seq) {
		return
	}
	cpu.txBeginDispatchFenced(seq)
}

func (cpu *CPU) txBeginDispatchFenced(seq uint64) {
	o := &cpu.curOp
	cpu.prog.lock = o.lock
	switch cpu.m.cfg.Scheme {
	case Base:
		cpu.eng.EnterCritical(false)
		o.lock.stats.Acquired++
		cpu.prog.acquires++
		cpu.noteProgress(progressAcquire)
		cpu.completeOp(seq, result{mode: CritAcquireTTS})
		return
	case MCS:
		cpu.eng.EnterCritical(false)
		o.lock.stats.Acquired++
		cpu.prog.acquires++
		cpu.noteProgress(progressAcquire)
		cpu.completeOp(seq, result{mode: CritAcquireMCS})
		return
	}
	if cpu.pendingFallback || !cpu.eng.CanElide() || !cpu.elide.ShouldElide(o.lock.ID) {
		kind := progressAcquire
		if cpu.pendingFallback {
			cpu.pendingFallback = false
			cpu.eng.NoteFallback()
			cpu.m.mx.NoteFallback(cpu.id, o.lock.prof)
			cpu.m.Sys.Trace(cpu.id, trace.Fallback, o.lock.Addr, "")
			cpu.prog.fallbacks++
			// The attempt that escalated carries its restart count until the
			// next elision attempt; record it as this attempt's retry depth.
			cpu.noteRetries(uint64(cpu.eng.Restarts()))
			kind = progressFallback
		}
		cpu.eng.EnterCritical(false)
		o.lock.stats.Acquired++
		cpu.prog.acquires++
		cpu.noteProgress(kind)
		cpu.completeOp(seq, result{mode: CritAcquireTTS})
		return
	}
	cpu.elideAttempt(seq)
}

// elideAttempt elides the lock. The fast path predicts the lock free and
// enters speculation immediately: the lock-word read (which puts the lock
// line in the transaction's read set, so any writer restarts us) resolves
// in the background, OVERLAPPED with critical-section execution — the key
// latency-hiding property of SLE that a blocking acquire cannot have. The
// commit waits for the check (commitReady requires no outstanding
// speculative miss). If the prediction was wrong (lock actually held), the
// transaction squashes and the retry takes the conservative path: wait for
// the lock to be observed free before re-entering speculation.
func (cpu *CPU) elideAttempt(seq uint64) {
	if !cpu.waitFree {
		if !cpu.eng.Speculating() {
			cpu.specStartAt = cpu.m.K.Now()
		}
		cpu.eng.EnterCritical(true)
		cpu.m.Sys.Trace(cpu.id, trace.TxnBegin, cpu.curOp.lock.Addr, "")
		// Background resolution, tagged with the transaction rather than
		// the op: the TxBegin op completes right away.
		cpu.ctrl.Load(cpu.curOp.lock.Addr, false, cpu.lockCheck, cpu.eng.TxSeq())
		cpu.completeOp(seq, result{mode: CritElided})
		return
	}
	// Conservative path after a lock-held misprediction.
	cpu.awaitFreeLock(seq)
}

// lockWordChecked is the predicted-free elision's background lock-word
// check (cpu.lockCheck), tagged with the transaction's TxSeq.
func (cpu *CPU) lockWordChecked(txSeq, v uint64, ok bool) {
	if !ok || !cpu.eng.Speculating() || cpu.eng.TxSeq() != txSeq {
		return // the transaction already died; nothing to check
	}
	if v != 0 {
		// Mispredicted: the lock was held. Squash and make the retry wait
		// for a release.
		cpu.waitFree = true
		cpu.ctrl.AbortTxn(core.ReasonLockWrite)
	}
}

// awaitFreeLock (re)starts the conservative elision path: observe the lock
// word, and enter speculation only once it reads free.
func (cpu *CPU) awaitFreeLock(seq uint64) {
	cpu.lockEntered = false
	cpu.ctrl.Load(cpu.curOp.lock.Addr, false, cpu.sink, seq)
}

// lockLoaded continues the conservative elision path with the lock word
// read at its current stage (lockEntered).
func (cpu *CPU) lockLoaded(seq, v uint64, ok bool) {
	lock := cpu.curOp.lock
	if !cpu.lockEntered {
		if !ok {
			cpu.completeOp(seq, result{aborted: true})
			return
		}
		if v != 0 {
			// Lock held (some thread fell back and acquired): wait for the
			// release invalidation. The wait is charged to the lock.
			cpu.ctrl.SubscribeLine(lock.Addr, lineChanged, cpu, seq)
			return
		}
		if !cpu.eng.Speculating() {
			cpu.specStartAt = cpu.m.K.Now()
		}
		cpu.eng.EnterCritical(true)
		cpu.lockEntered = true
		cpu.ctrl.Load(lock.Addr, false, cpu.sink, seq)
		return
	}
	if !ok || cpu.eng.Aborted() {
		cpu.completeOp(seq, result{aborted: true})
		return
	}
	if v != 0 {
		// Acquired under us between observation and entry: squash the
		// empty transaction and retry.
		cpu.ctrl.AbortTxn(core.ReasonLockWrite)
		return // onAbort already completed the op
	}
	cpu.waitFree = false
	cpu.completeOp(seq, result{mode: CritElided})
}

// txEnd commits the transaction at the outermost elided level; inner elided
// levels just pop (their effects commit with the outermost).
func (cpu *CPU) txEnd(seq uint64) {
	o := &cpu.curOp
	if cpu.eng.Aborted() {
		cpu.completeOp(seq, result{aborted: true})
		return
	}
	cpu.commitLockBound = o.lock != nil && cpu.ctrl.SpecMissOutstanding(o.lock.Addr)
	if !cpu.eng.Outermost() {
		cpu.eng.ExitCritical(true)
		o.lock.stats.Elided++
		cpu.completeOp(seq, result{ok: true})
		return
	}
	// Restarts must be read before commit: ResetAttempt clears the count.
	cpu.commitRetries = uint64(cpu.eng.Restarts())
	cpu.ctrl.TryCommit(cpu.sink, seq)
}

// committed finishes the TxEnd once TryCommit resolves.
func (cpu *CPU) committed(seq uint64, ok bool) {
	if !ok {
		cpu.completeOp(seq, result{aborted: true})
		return
	}
	l := cpu.curOp.lock
	l.stats.Elided++
	cpu.elide.Success(l.ID)
	cpu.rmw.EndSection()
	cpu.eng.ResetAttempt()
	cpu.m.mx.NoteRetries(cpu.commitRetries)
	cpu.noteRetries(cpu.commitRetries)
	cpu.noteCritDone(l)
	cpu.prog.commits++
	cpu.noteProgress(progressCommit)
	cpu.completeOp(seq, result{ok: true})
}

// account attributes the cycles of the op just completed (curOp, or its
// folded compute span while curOp.lead > 0): one busy (issue) cycle, the
// rest stall, classified by whether the operation targets a lock variable.
// Compute is pure busy time. Figure 11's accounting: "the instruction that
// stalls commit is charged the stall".
func (cpu *CPU) account(elapsed uint64) {
	if cpu.curOp.kind == opCompute || cpu.curOp.lead > 0 {
		cpu.stats.Busy += elapsed
		return
	}
	cpu.stats.Busy++
	stall := elapsed
	if stall > 0 {
		stall--
	}
	if stall == 0 {
		return
	}
	if cpu.isLockOp() {
		cpu.stats.LockStall += stall
	} else {
		cpu.stats.DataStall += stall
	}
}

// isLockOp reports whether curOp's stall is charged to the lock.
func (cpu *CPU) isLockOp() bool {
	o := &cpu.curOp
	switch o.kind {
	case opTxBegin:
		return true
	case opTxEnd:
		// Commit stall is charged to the lock when the outstanding fetch
		// stalling it was the elided lock word itself.
		return cpu.commitLockBound
	case opCompute, opCSEnter, opCSExit, opUnelidable:
		return false
	}
	return cpu.m.Sys.IsLockLine(o.addr)
}

// DebugOp reports the CPU's current operation state for deadlock dumps.
func (cpu *CPU) DebugOp() string {
	return fmt.Sprintf("opActive=%v lastOp=%d stalledUntil=%d pendingFallback=%v waitFree=%v",
		cpu.opActive, cpu.lastOp, cpu.stalledUntil, cpu.pendingFallback, cpu.waitFree)
}
