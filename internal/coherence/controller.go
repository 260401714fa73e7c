package coherence

import (
	"fmt"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/core"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
	"tlrsim/internal/stamp"
)

// Sink receives the completion of a CPU-issued memory operation. n is the
// tag the issuer passed with the operation (the CPU passes the operation's
// sequence number), val the operation's value. ok=false means the operation
// was squashed because the transaction it belonged to aborted; val is then
// meaningless. An issuer binds its sink once (a method value) and tags each
// operation, so issuing an operation allocates no closure: the same
// pre-binding kernel events (sim.AtCall) and bus messages use.
type Sink func(n, val uint64, ok bool)

// chainEntry is a request snooped while this controller was the pending
// owner-of-record for the line: the per-MSHR tail of a coherence chain
// (§3.1.1). At most one ownership-taking (GetX/Upgrade) entry can exist,
// always last, because once it is ordered the ownership of record moves on.
type chainEntry struct {
	txn *bus.Txn
}

// mshr tracks one outstanding miss (miss status handling register).
// MSHRs are pooled per controller (newMSHR/freeMSHR); see freeMSHR for the
// points where one is released.
type mshr struct {
	line  memsys.Addr
	kind  bus.Kind // GetS or GetX (Upgrade converts on loss)
	txnID uint64
	// txn is the request in flight, from issue until the controller passes
	// it to Bus.Complete (nil afterwards). txnID outlives it: stale
	// responses, the drain map and the NACK retry match on the ID.
	txn     *bus.Txn
	stamp   stamp.Stamp
	ordered bool

	wantWritable bool
	spec         bool // issued from within a transaction
	specWrite    bool // the transaction has a buffered store to this line

	// upgradeAfterFill: a GetS is in flight but ownership became necessary
	// meanwhile; issue the upgrade once data lands.
	upgradeAfterFill bool

	chain []chainEntry

	// Marker/probe plumbing (§3.1.1): upstream is the neighbour that will
	// eventually send us data; probes queue here until it is known.
	upstream      int
	hasUpstream   bool
	pendingProbes []stamp.Stamp

	// conflictLost: while pending we learned of a conflicting request with
	// an earlier timestamp chained directly at this MSHR. Enforced at fill
	// by serviceChain's re-resolution (lose: abort, then service); kept
	// here for diagnosis.
	conflictLost bool

	// probeLost: a probe carrying a timestamp earlier than our
	// transaction's transited this MSHR on its way upstream (§3.1.1,
	// Figure 6) — a conflicting older transaction waits somewhere DEEPER
	// in the chain behind us, beyond the entries serviceChain re-resolves
	// at fill. Probes are edge-triggered: they chase the data holder of
	// the moment, so once we fill and become the holder ourselves the
	// older transaction has no way to re-probe us, and if our deferrals
	// then park the chain while we block on another contested line, the
	// Figure 6 wait cycle re-forms around us with no message left to break
	// it. Pre-emptively losing at fill whenever this flag is set would
	// close that window but converts nearly every probe transit into an
	// abort and collapses TLR's high-contention scaling; instead the
	// machine's deadlock recovery (proc.runLoop) squashes the youngest
	// deferring transaction if the cycle actually completes. The flag is
	// kept as a diagnostic: a deadlocked dump showing probeLost on a
	// filled-and-deferring holder is this exact race.
	probeLost bool

	// handedOff: an ownership-taking request has chained here, so the
	// ownership of record has moved on; later requests chain at the new
	// pending owner and this controller stops answering owner snoops.
	handedOff bool

	// invalidated: an ownership-taking request was ordered after ours
	// (GetS only) — forward the fill value to waiters but do not cache it.
	invalidated bool

	// shared (GetS only): the fill installs Shared, not Exclusive. This is
	// the one place that decision lives. It is set at our own order point
	// from the bus's verdict that another cache holds (or is about to hold)
	// the line, and when any other reader's GetS was ordered while ours was
	// among the outstanding misses: the line's read count moved past the
	// reads snapshot (readSeen, at our order point, at a drain-detach and
	// at fill). Suppliers have no say.
	shared bool

	// slot is the line's snoop-filter slot, found once at issue; reads is
	// the slot's ordered-GetS count as of the last snapshot.
	slot  int
	reads uint64

	// nackRetries counts NACK-and-retry rounds (NACK retention mode); the
	// backoff grows with it and a cap forces the lock fallback.
	nackRetries int

	// priority: the request has been NACKed past the pathological
	// threshold and reissues as a Priority transaction no owner may refuse
	// (the non-speculative forward-progress escalation).
	priority bool

	waiters []waiter
}

// waitKind says what a waiter does when it runs: the load kinds receive the
// word this CPU then observes, the write kinds need the line writable.
type waitKind uint8

const (
	waitLoad    waitKind = iota // a load: completes with the word at addr
	waitLL                      // a load-linked: a load that then arms the link
	waitSpecRMW                 // a speculative atomic: a load, then a buffered store
	waitStore                   // a plain store: retried if the line was lost
	waitSC                      // a store-conditional: fails if the link or line was lost
	waitRMW                     // a plain atomic: retried if the line was lost
)

// rmwOp is an atomic read-modify-write's operation.
type rmwOp uint8

const (
	rmwSwap rmwOp = iota // write val
	rmwCAS               // write val if the word equals old
	rmwAdd               // write the word plus val
)

// apply returns the value op writes over cur, and whether it writes.
func (op rmwOp) apply(cur, val, old uint64) (uint64, bool) {
	switch op {
	case rmwCAS:
		return val, cur == old
	case rmwAdd:
		return cur + val, true
	}
	return val, true
}

// waiter is one CPU operation parked in the controller: attached to an
// MSHR until the fill (or instant upgrade) lands, or queued on the store
// buffer until it has space or drains. It is plain data, the operation and
// where its completion goes, so parking an operation allocates nothing.
type waiter struct {
	sink Sink
	n    uint64
	addr memsys.Addr
	// val is the store's value, or the atomic's operand (the swap or CAS
	// value, the add delta); old is the value a CAS expects.
	val, old uint64
	// txSeq is the transaction a load kind belongs to: the functional
	// checker records the load against it.
	txSeq uint64
	kind  waitKind
	op    rmwOp
}

// wake runs an MSHR waiter once its fill (or upgrade) has landed.
func (c *Controller) wake(w waiter) {
	switch w.kind {
	case waitStore:
		c.storeExec(w) // writes now, or re-requests a line lost since the fill
		return
	case waitSC:
		c.scFilled(w)
		return
	case waitRMW:
		c.rmwFilled(w)
		return
	}
	v := c.localWord(w.addr)
	if c.sys.Check != nil {
		c.checkLoad(w.addr, v, w.txSeq)
	}
	switch w.kind {
	case waitLL:
		c.linkLoaded(w.addr, v, w.sink, w.n)
	case waitSpecRMW:
		c.specRMWLoaded(w, v)
	default:
		w.sink(w.n, v, true)
	}
}

// Stats counts controller-level activity.
type Stats struct {
	Loads, Stores   uint64
	Misses          uint64
	Upgrades        uint64
	Writebacks      uint64
	ChainedRequests uint64
	SpecOverflows   uint64
	NacksSent       uint64
	NackRetries     uint64
}

// Controller is one processor's L1 cache controller with TLR support
// (Figure 5: access bits in the cache, a deferred-request queue, and
// timestamped misses).
type Controller struct {
	sys *System
	id  int

	cache *cache.Cache
	wb    *cache.WriteBuffer
	sb    *storeBuffer
	eng   *core.Engine

	// mshrs are the outstanding misses, at most one per line, in issue
	// order. Every per-request list below is as short as the requests in
	// flight, so each is a slice searched linearly.
	mshrs []*mshr

	// freeMSHRs recycles released MSHRs (see freeMSHR).
	freeMSHRs []*mshr

	// draining holds invalidated GetS requests (ordered before a writer)
	// detached from the line: their data, when it arrives, is forwarded to
	// the waiters that attached before the invalidation and nothing more.
	// Found by transaction id. New requests for the line reissue freshly.
	draining []*mshr

	// wbPending holds dirty lines between eviction and write-back ordering
	// so the controller can still supply them (split-transaction race), at
	// most one per line.
	wbPending []wbEntry

	// wbSuperseded lists in-flight write-backs whose data was handed to a
	// new exclusive owner before the write-back ordered: memory must skip
	// them, or a stale write-back ordered after the new owner's fresher one
	// would corrupt memory.
	wbSuperseded []memsys.Addr

	// LL/SC link register.
	linkLine  memsys.Addr
	linkValid bool

	// specReads is the functional checker's view of the transaction's read
	// set: the first value observed per word (own buffered writes excluded),
	// bounded by the transaction's footprint.
	specReads memsys.WordSet

	// sbLoadForward is set while a load forwards from the store buffer
	// (the buffered store has not reached its global ordering point, so the
	// checker must not compare against the shadow).
	sbLoadForward bool

	// lineSubs are the spin-wait subscriptions, one entry per line that is
	// spun on, notified when the line changes visibility (invalidation or
	// fill). A notified line's entry goes and its array returns to freeSubs
	// for the next subscription.
	lineSubs []lineSubs
	freeSubs [][]lineSub

	// commitArmed is set while the CPU sits at transaction end waiting for
	// all write-buffer lines to reach a writable state (§2.2 step 4); the
	// retried TryCommit completes to commitSink, tagged commitN.
	commitArmed bool
	commitSink  Sink
	commitN     uint64

	// drained is the store buffer's own completion for the head entry's
	// drain (storeBuffer.drained), bound once at construction.
	drained Sink

	// fwd passes values to waiters when a fill cannot be installed (a GetS
	// that was invalidated while pending): the load was ordered before the
	// writer, so it legally observes the pre-write data, but the line must
	// not be cached. While it is valid the forward-only fill's waiters run,
	// and their loads are exempt from the checker's equality test.
	fwd fillForward

	// OnAbort is invoked (synchronously, in kernel context) whenever the
	// in-flight transaction is squashed; the CPU uses it to unblock the
	// current operation and restart the thread.
	OnAbort func(core.Reason)

	stats Stats
}

func newController(s *System, id int, eng *core.Engine) *Controller {
	c := &Controller{
		sys:   s,
		id:    id,
		cache: cache.New(s.cfg.Cache),
		wb:    cache.NewWriteBuffer(s.cfg.WriteBufferLines),
		sb:    newStoreBuffer(s.cfg.StoreBufferEntries),
		eng:   eng,
	}
	c.drained = c.sbDrained
	return c
}

// ID returns the controller's processor id.
func (c *Controller) ID() int { return c.id }

// Engine returns the attached TLR/SLE engine.
func (c *Controller) Engine() *core.Engine { return c.eng }

// Cache exposes the cache array (tests and checkers).
func (c *Controller) Cache() *cache.Cache { return c.cache }

// Stats returns controller counters.
func (c *Controller) Stats() *Stats { return &c.stats }

// noteMSHRs reports the outstanding-miss count to the instrument set after
// an MSHR insert or delete.
func (c *Controller) noteMSHRs() { c.sys.Metrics.NoteMSHRs(c.id, uint64(c.sys.K.Now()), len(c.mshrs)) }

// WriteBufferLines reports the speculative write-buffer occupancy.
func (c *Controller) WriteBufferLines() int { return c.wb.LineCount() }

// ---------------------------------------------------------------------------
// CPU-facing operations
// ---------------------------------------------------------------------------

// Load performs a load of the word at a. wantExcl requests the line in an
// exclusive state up front (RMW-predictor collapse, §3.1.2). sink receives
// the value, tagged n, once it is available (possibly immediately, in the
// current event).
func (c *Controller) Load(a memsys.Addr, wantExcl bool, sink Sink, n uint64) {
	if v, ok := c.LoadHit(a, wantExcl); ok {
		sink(n, v, true)
		return
	}
	c.LoadMiss(a, wantExcl, sink, n)
}

// LoadHit services a load synchronously when no kernel round-trip is needed:
// write-buffer or store-buffer forwarding, or a cache hit (including a hit
// that starts a background upgrade). It reports false — with no side
// effects — when the load must take the miss path. This is the CPU's
// cache-hit fast path: a hit costs no scheduled events beyond the op's own
// issue tick, charging the same simulated latency as before.
func (c *Controller) LoadHit(a memsys.Addr, wantExcl bool) (uint64, bool) {
	spec := c.eng.Speculating()
	if spec {
		if v, ok := c.wb.Read(a); ok {
			// Store-to-load forwarding from the speculative write buffer.
			c.stats.Loads++
			if c.sys.Check != nil {
				c.checkLoad(a, v, c.eng.TxSeq())
			}
			return v, true
		}
	} else if v, ok := c.sbForward(a); ok {
		// TSO load→own-store forwarding from the store buffer.
		c.stats.Loads++
		if c.sys.Check != nil {
			c.sbLoadForward = true
			c.checkLoad(a, v, c.eng.TxSeq())
			c.sbLoadForward = false
		}
		return v, true
	}
	line := a.Line()
	l := c.cache.Probe(line)
	if l == nil {
		return 0, false
	}
	c.stats.Loads++
	c.cache.Touch(l)
	if spec {
		c.cache.MarkSpecRead(l)
	}
	if wantExcl && !l.State.Writable() {
		// Predicted RMW on a shared copy: start the upgrade early but
		// do not block the load.
		c.ensureWritable(line, spec, false)
	}
	v := l.Data[a.WordIndex()]
	if c.sys.Check != nil {
		c.checkLoad(a, v, c.eng.TxSeq())
	}
	return v, true
}

// LoadMiss issues the asynchronous miss path for a load that LoadHit
// declined. Callers must have called LoadHit (unsuccessfully) in the same
// event.
func (c *Controller) LoadMiss(a memsys.Addr, wantExcl bool, sink Sink, n uint64) {
	c.loadMiss(a, wantExcl, waiter{kind: waitLoad, sink: sink, n: n})
}

// loadMiss parks w, a load kind, on the line's fill.
func (c *Controller) loadMiss(a memsys.Addr, wantExcl bool, w waiter) {
	c.stats.Loads++
	w.addr, w.txSeq = a, c.eng.TxSeq()
	c.stats.Misses++
	spec := c.eng.Speculating()
	line := a.Line()
	excl := wantExcl || (spec && c.eng.WantExclusiveRead(line))
	m := c.ensureMSHR(line, excl, spec, false)
	// The fill path installs (or forwards) the line before waking the
	// waiter, which then reads the word this CPU observes.
	m.waiters = append(m.waiters, w)
}

// checkLoad feeds a completed load to the functional checker: speculative
// reads are recorded for commit-time validation; plain reads are validated
// immediately.
func (c *Controller) checkLoad(a memsys.Addr, v uint64, txSeq uint64) {
	if c.eng.Speculating() {
		if c.eng.Aborted() || c.eng.TxSeq() != txSeq {
			return // stale callback from a dead transaction
		}
		if _, own := c.wb.Read(a); own {
			return // reads own buffered write
		}
		c.specReads.Record(a, v)
		return
	}
	c.sys.Check.PlainLoad(c.id, a, v, c.fwd.valid || c.sbLoadForward)
}

// localWord returns the value this CPU currently observes for a (write
// buffer, then cache, then the fill in flight has already installed it).
func (c *Controller) localWord(a memsys.Addr) uint64 {
	if c.eng.Speculating() {
		if v, ok := c.wb.Read(a); ok {
			return v
		}
	}
	if l := c.cache.Probe(a.Line()); l != nil {
		return l.Data[a.WordIndex()]
	}
	// Fill-and-forward without install (invalidated GetS): the fill path
	// passes the value through fwd.
	if c.fwd.valid && c.fwd.line == a.Line() {
		return c.fwd.data[a.WordIndex()]
	}
	return 0
}

// StoreOutcome reports how StoreFast handled a store.
type StoreOutcome int

const (
	// StoreSlow: not handled; the caller must take the asynchronous Store
	// path. No side effects occurred.
	StoreSlow StoreOutcome = iota
	// StoreDone: the store completed synchronously and successfully.
	StoreDone
	// StoreAborted: a speculative overflow aborted the transaction; the
	// OnAbort callback has already squashed the in-flight operation.
	StoreAborted
)

// StoreFast attempts the synchronous store paths: speculative stores (which
// always resolve in the issuing event, by buffering or by overflow-abort),
// a store-buffer push with space available, or a direct writable hit. It
// reports StoreSlow, with no side effects, when the store needs the
// asynchronous path.
func (c *Controller) StoreFast(a memsys.Addr, v uint64) StoreOutcome {
	if c.eng.Speculating() {
		c.stats.Stores++
		if c.sys.Faults.RefuseWB() || !c.wb.Write(a, v) {
			// Write-buffer capacity exhausted (or injected capacity
			// pressure): resource misspeculation and lock acquisition
			// (§3.3).
			c.stats.SpecOverflows++
			c.AbortTxn(core.ReasonResource)
			return StoreAborted
		}
		line := a.Line()
		if l := c.cache.Probe(line); l != nil {
			c.cache.MarkSpecWritten(l)
			c.cache.MarkSpecRead(l)
			if !l.State.Writable() {
				c.ensureWritable(line, true, true)
			}
		} else {
			if c.mshrFor(line) == nil {
				c.stats.Misses++
			}
			m := c.ensureMSHR(line, true, true, true)
			m.specWrite = true
		}
		return StoreDone
	}
	if c.sb != nil {
		if !c.sb.push(a, v) {
			return StoreSlow // buffer full: the processor stalls for space
		}
		c.stats.Stores++
		c.sbDrain()
		return StoreDone
	}
	line := a.Line()
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.stats.Stores++
		c.cache.Touch(l)
		l.Data[a.WordIndex()] = v
		l.State = cache.Modified
		c.checkStore(a, v)
		c.notifyLine(line)
		return StoreDone
	}
	return StoreSlow
}

// Store performs a store of v to a. Speculative stores land in the write
// buffer and return immediately (the exclusive request proceeds in the
// background; commit waits for it). Non-speculative stores block until the
// line is writable.
func (c *Controller) Store(a memsys.Addr, v uint64, sink Sink, n uint64) {
	switch c.StoreFast(a, v) {
	case StoreDone:
		sink(n, v, true)
	case StoreAborted:
		sink(n, 0, false)
	default:
		c.StoreMiss(a, v, sink, n)
	}
}

// StoreMiss runs the asynchronous path for a non-speculative store that
// StoreFast declined (StoreSlow); sink receives the completion tagged n.
// Callers must have called StoreFast in the same event.
func (c *Controller) StoreMiss(a memsys.Addr, v uint64, sink Sink, n uint64) {
	w := waiter{kind: waitStore, sink: sink, n: n, addr: a, val: v}
	c.stats.Stores++
	// Non-speculative path: through the TSO store buffer when enabled.
	if c.sb != nil {
		// Buffer full: the store (and the processor) stalls for space.
		c.sb.onSpace.push(sbWaiter{w: w})
		return
	}
	c.storeExec(w)
}

// storeExec performs a non-speculative store (a waitStore record) against
// the cache, blocking until the line is writable (the drain path of the
// store buffer, or the direct path when no buffer is configured). A store
// whose line is stolen between fill and wake-up (by a chained GetX) comes
// back here and re-requests it.
func (c *Controller) storeExec(w waiter) {
	line := w.addr.Line()
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.cache.Touch(l)
		l.Data[w.addr.WordIndex()] = w.val
		l.State = cache.Modified
		c.checkStore(w.addr, w.val)
		c.notifyLine(line)
		w.sink(w.n, w.val, true)
		return
	}
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, w)
}

// checkStore feeds a completed plain store to the functional checker.
func (c *Controller) checkStore(a memsys.Addr, v uint64) {
	if c.sys.Check != nil {
		c.sys.Check.PlainStore(c.id, a, v)
	}
}

// LL performs a load-linked: a load that arms the link register. The link
// only arms if the line actually installed in the cache — a forward-only
// fill (our read was ordered before a writer that has since invalidated the
// line) must leave the link broken, or the subsequent SC could succeed on a
// stale observation and break mutual exclusion.
func (c *Controller) LL(a memsys.Addr, sink Sink, n uint64) {
	if v, ok := c.LoadHit(a, false); ok {
		c.linkLoaded(a, v, sink, n)
		return
	}
	c.loadMiss(a, false, waiter{kind: waitLL, sink: sink, n: n})
}

// linkLoaded completes a load-linked that observed v.
func (c *Controller) linkLoaded(a memsys.Addr, v uint64, sink Sink, n uint64) {
	if c.cache.Probe(a.Line()) != nil {
		c.linkLine = a.Line()
		c.linkValid = true
	} else {
		c.linkValid = false
	}
	sink(n, v, true)
}

// SC performs a store-conditional of v to a; the completion's val is 1 on
// success, 0 on failure. Inside a transaction SC behaves as a buffered store
// (an inner lock treated as data, §4): atomicity is guaranteed by the
// transaction.
func (c *Controller) SC(a memsys.Addr, v uint64, sink Sink, n uint64) {
	c.sc(waiter{kind: waitSC, sink: sink, n: n, addr: a, val: v})
}

func (c *Controller) sc(w waiter) {
	if c.eng.Speculating() {
		// A speculative store always resolves in the issuing event.
		w.sink(w.n, 1, c.StoreFast(w.addr, w.val) == StoreDone)
		return
	}
	line := w.addr.Line()
	if c.sb != nil && !c.sb.empty() {
		c.sb.onEmpty.push(sbWaiter{w: w}) // fence: drain first, then retry
		return
	}
	if !c.linkValid || c.linkLine != line {
		w.sink(w.n, 0, true)
		return
	}
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.scWrite(l, w)
		return
	}
	// Need write permission; the link may break while we wait.
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, w)
}

// scFilled completes an SC whose line has been filled, or fails it if the
// link broke or the line was lost meanwhile.
func (c *Controller) scFilled(w waiter) {
	line := w.addr.Line()
	l := c.cache.Probe(line)
	if !c.linkValid || c.linkLine != line || l == nil || !l.State.Writable() {
		w.sink(w.n, 0, true) // SC failed
		return
	}
	c.scWrite(l, w)
}

// scWrite performs a successful SC into the writable line l.
func (c *Controller) scWrite(l *cache.Line, w waiter) {
	l.Data[w.addr.WordIndex()] = w.val
	l.State = cache.Modified
	c.linkValid = false
	c.checkStore(w.addr, w.val)
	c.notifyLine(w.addr)
	w.sink(w.n, 1, true)
}

// Swap atomically exchanges v with the word at a, returning the old value
// (MCS enqueue primitive). Non-speculatively it holds the line in M across
// the read-modify-write; speculatively it is a load + buffered store.
func (c *Controller) Swap(a memsys.Addr, v uint64, sink Sink, n uint64) {
	c.atomic(waiter{op: rmwSwap, sink: sink, n: n, addr: a, val: v})
}

// CAS atomically compares the word at a with old and, if equal, stores
// newv. The completion's val is the observed value.
func (c *Controller) CAS(a memsys.Addr, old, newv uint64, sink Sink, n uint64) {
	c.atomic(waiter{op: rmwCAS, sink: sink, n: n, addr: a, val: newv, old: old})
}

// FetchAdd atomically adds delta to the word at a, returning the old value.
func (c *Controller) FetchAdd(a memsys.Addr, delta uint64, sink Sink, n uint64) {
	c.atomic(waiter{op: rmwAdd, sink: sink, n: n, addr: a, val: delta})
}

// atomic runs the read-modify-write w describes: speculatively as an
// exclusive-intent load followed by a buffered store, otherwise under
// write permission (rmw).
func (c *Controller) atomic(w waiter) {
	if !c.eng.Speculating() {
		w.kind = waitRMW
		c.rmw(w)
		return
	}
	w.txSeq = c.eng.TxSeq()
	if v, ok := c.LoadHit(w.addr, true); ok {
		c.specRMWLoaded(w, v)
		return
	}
	w.kind = waitSpecRMW
	c.loadMiss(w.addr, true, w)
}

// specRMWLoaded finishes a speculative atomic whose load observed cur: a
// CAS that does not match completes with cur, anything else stores into the
// write buffer and completes with cur. If the atomic's transaction was
// squashed while the load was in flight, the store belongs to the dead
// transaction: it is dropped (it must reach neither the next transaction's
// write buffer nor memory) and the atomic completes as squashed.
func (c *Controller) specRMWLoaded(w waiter, cur uint64) {
	if !c.eng.Speculating() || c.eng.Aborted() || c.eng.TxSeq() != w.txSeq {
		w.sink(w.n, cur, false)
		return
	}
	nv, write := w.op.apply(cur, w.val, w.old)
	if !write {
		w.sink(w.n, cur, true)
		return
	}
	// A speculative store either buffers or overflows the write buffer.
	w.sink(w.n, cur, c.StoreFast(w.addr, nv) == StoreDone)
}

// rmw obtains the line in a writable state and applies the atomic w (a
// waitRMW record) in place. Atomics are fences under TSO: buffered stores
// drain first.
func (c *Controller) rmw(w waiter) {
	if c.sb != nil && !c.sb.empty() {
		c.sb.onEmpty.push(sbWaiter{w: w})
		return
	}
	line := w.addr.Line()
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.cache.Touch(l)
		c.rmwWrite(l, w)
		return
	}
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, w)
}

// rmwFilled applies an atomic whose line has been filled, retrying it if
// the line was stolen meanwhile.
func (c *Controller) rmwFilled(w waiter) {
	l := c.cache.Probe(w.addr.Line())
	if l == nil || !l.State.Writable() {
		c.rmw(w) // line stolen; retry
		return
	}
	c.rmwWrite(l, w)
}

// rmwWrite applies the atomic w to the writable line l.
func (c *Controller) rmwWrite(l *cache.Line, w waiter) {
	old := l.Data[w.addr.WordIndex()]
	nv, write := w.op.apply(old, w.val, w.old)
	if write {
		l.Data[w.addr.WordIndex()] = nv
		l.State = cache.Modified
	}
	c.checkRMW(w.addr, old, nv, write)
	if write {
		c.notifyLine(w.addr)
	}
	w.sink(w.n, old, true)
}

// checkRMW feeds a completed atomic read-modify-write to the checker.
func (c *Controller) checkRMW(a memsys.Addr, old, nv uint64, wrote bool) {
	if c.sys.Check != nil {
		c.sys.Check.PlainRMW(c.id, a, old, nv, wrote)
	}
}

// lineSub is a spin-wait subscription: cb(recv, nil, n) runs when the line
// next changes visibility.
type lineSub struct {
	cb   sim.Callback
	recv any
	n    uint64
}

// lineSubs are the subscriptions waiting on one line.
type lineSubs struct {
	line memsys.Addr
	subs []lineSub
}

// SubscribeLine registers cb(recv, nil, n) to run once when the visibility
// of line next changes (invalidation, fill, or local write) — the spin-wait
// mechanism.
func (c *Controller) SubscribeLine(line memsys.Addr, cb sim.Callback, recv any, n uint64) {
	line = line.Line()
	for i := range c.lineSubs {
		if e := &c.lineSubs[i]; e.line == line {
			e.subs = append(e.subs, lineSub{cb, recv, n})
			return
		}
	}
	var subs []lineSub
	if n := len(c.freeSubs); n > 0 {
		subs = c.freeSubs[n-1]
		c.freeSubs = c.freeSubs[:n-1]
	}
	c.lineSubs = append(c.lineSubs, lineSubs{line, append(subs, lineSub{cb, recv, n})})
}

func (c *Controller) notifyLine(line memsys.Addr) {
	line = line.Line()
	for i := range c.lineSubs {
		if c.lineSubs[i].line != line {
			continue
		}
		// Detach the list before it runs: a subscriber that re-subscribes
		// starts a fresh one.
		subs := c.lineSubs[i].subs
		c.lineSubs = append(c.lineSubs[:i], c.lineSubs[i+1:]...)
		for _, s := range subs {
			s.cb(s.recv, nil, s.n)
		}
		c.freeLineSubs(subs)
		return
	}
}

// freeLineSubs returns a finished subscription list's array to freeSubs.
func (c *Controller) freeLineSubs(subs []lineSub) {
	clear(subs)
	c.freeSubs = append(c.freeSubs, subs[:0])
}

// ---------------------------------------------------------------------------
// MSHR and bus request machinery
// ---------------------------------------------------------------------------

// ensureWritable guarantees an in-flight request that will leave the line
// writable: an Upgrade if we hold it shared, else a GetX.
func (c *Controller) ensureWritable(line memsys.Addr, spec, specWrite bool) *mshr {
	if m := c.mshrFor(line); m != nil {
		m.wantWritable = true
		if specWrite {
			m.specWrite = true
		}
		if m.kind == bus.GetS {
			// A read miss is in flight but we now need ownership; the fill
			// path will issue the upgrade when data lands.
			m.upgradeAfterFill = true
		}
		return m
	}
	l := c.cache.Probe(line)
	kind := bus.GetX
	if l != nil && (l.State == cache.Shared || l.State == cache.Owned) {
		kind = bus.Upgrade
		c.stats.Upgrades++
	}
	return c.issue(line, kind, spec, specWrite)
}

// ensureMSHR guarantees an in-flight fill for the line.
func (c *Controller) ensureMSHR(line memsys.Addr, excl, spec, specWrite bool) *mshr {
	if m := c.mshrFor(line); m != nil {
		if excl {
			m.wantWritable = true
			if m.kind == bus.GetS {
				m.upgradeAfterFill = true
			}
		}
		if specWrite {
			m.specWrite = true
		}
		if spec {
			m.spec = true
		}
		return m
	}
	kind := bus.GetS
	if excl {
		kind = bus.GetX
	}
	return c.issue(line, kind, spec, specWrite)
}

func (c *Controller) issue(line memsys.Addr, kind bus.Kind, spec, specWrite bool) *mshr {
	m := c.newMSHR()
	m.line = line
	m.kind = kind
	m.stamp = c.eng.Stamp()
	m.spec = spec
	m.specWrite = specWrite
	m.wantWritable = kind != bus.GetS
	m.upstream = bus.MemID
	m.slot = c.sys.holders.at(line)
	m.reads = *c.sys.holders.reads(m.slot)
	c.mshrs = append(c.mshrs, m)
	c.noteMSHRs()
	c.issueTxn(m)
	// If we are speculating and just created a miss on a second line while
	// holding a relaxed-win deferral, timestamp order must be restored
	// (§3.2): the engine re-checks on the next conflict; additionally any
	// already-deferred earlier-timestamp request must now be honoured.
	if spec {
		c.enforceTimestampOrderAfterNewMiss(line)
	}
	return m
}

// issueTxn puts m's request (its kind, line, stamp and priority) on the bus
// as a pooled transaction and records it as m's transaction in flight.
func (c *Controller) issueTxn(m *mshr) {
	t := c.sys.Bus.NewTxn()
	t.Kind, t.Line, t.Src, t.Stamp, t.Priority = m.kind, m.line, c.id, m.stamp, m.priority
	m.txn = t
	m.txnID = c.sys.Bus.Issue(t)
}

// completeTxn ends m's transaction in flight: the bus slot is released and
// the transaction recycled, so m must not touch it again.
func (c *Controller) completeTxn(m *mshr) {
	c.sys.Bus.Complete(m.txn)
	m.txn = nil
}

// newMSHR returns a zeroed MSHR, recycled from the free list when one is
// there. A recycled MSHR keeps the backing arrays of its chain, probe and
// waiter lists.
func (c *Controller) newMSHR() *mshr {
	n := len(c.freeMSHRs)
	if n == 0 {
		return new(mshr)
	}
	m := c.freeMSHRs[n-1]
	c.freeMSHRs = c.freeMSHRs[:n-1]
	chain, probes, waiters := m.chain[:0], m.pendingProbes[:0], m.waiters[:0]
	*m = mshr{} // zeroed in place, not built and copied
	m.chain, m.pendingProbes, m.waiters = chain, probes, waiters
	return m
}

// freeMSHR returns a retired MSHR to the free list. It is the single
// release point of an MSHR, called once nothing refers to it: at the end of
// finishMSHR and finishDraining (after the waiters and chain have run), and
// where nackedOwnRequest drops a request (past the pathological NACK
// threshold, or merged into a newer MSHR for the line). The MSHR must be in
// neither c.mshrs nor c.draining, and its transaction must be complete.
// Under the tlrpoison build tag it is overwritten with impossible values,
// so a use after release fails loudly.
func (c *Controller) freeMSHR(m *mshr) {
	clear(m.chain)
	clear(m.waiters)
	if bus.Poison {
		*m = mshr{
			line: ^memsys.Addr(0), kind: bus.Kind(-1), txnID: ^uint64(0), upstream: -2, slot: -1,
			ordered: true, upgradeAfterFill: true, handedOff: true,
			chain: m.chain[:0], pendingProbes: m.pendingProbes[:0], waiters: m.waiters[:0],
		}
	}
	c.freeMSHRs = append(c.freeMSHRs, m)
}

// enforceTimestampOrderAfterNewMiss aborts the transaction if a deferred
// request with an earlier timestamp exists on a different line than the new
// miss: the single-block relaxation no longer applies and continuing to
// defer could deadlock. Only a policy that relaxes can hold such a request;
// under every other policy each deferred stamp is later than the
// transaction's, so there is nothing to revoke.
func (c *Controller) enforceTimestampOrderAfterNewMiss(newLine memsys.Addr) {
	if !c.eng.Speculating() || !c.eng.Relaxes() {
		return
	}
	my := c.eng.Stamp()
	for _, d := range c.eng.PeekDeferred() {
		if d.Line != newLine && d.Stamp.Valid && c.eng.StampBefore(d.Stamp, my) {
			c.AbortTxn(core.ReasonConflict)
			return
		}
	}
}

// SpecMissOutstanding reports whether a speculative miss for the line is in
// flight (stall-attribution support).
func (c *Controller) SpecMissOutstanding(a memsys.Addr) bool {
	m := c.mshrFor(a.Line())
	return m != nil && m.spec
}

// otherSpecMissOutstanding reports whether the transaction has an unfilled
// miss on a line other than exclude (the §3.2 relaxation guard).
func (c *Controller) otherSpecMissOutstanding(exclude memsys.Addr) bool {
	for _, m := range c.mshrs {
		if m.line != exclude && m.spec {
			return true
		}
	}
	return false
}

// DebugString reports the controller's blocking state for deadlock
// diagnostics: outstanding MSHRs, deferred queue, spin subscriptions, and
// write-buffer occupancy.
func (c *Controller) DebugString() string {
	s := fmt.Sprintf("P%d eng=%v aborted=%v deferred=%d wbLines=%d commitWaiter=%v",
		c.id, c.eng.Mode(), c.eng.Aborted(), c.eng.DeferredLen(), c.wb.LineCount(), c.commitArmed)
	for _, m := range c.mshrs {
		s += fmt.Sprintf("\n  mshr %s kind=%v ordered=%v chain=%d handedOff=%v upstream=%d(%v) waiters=%d spec=%v conflictLost=%v probeLost=%v",
			m.line, m.kind, m.ordered, len(m.chain), m.handedOff, m.upstream, m.hasUpstream, len(m.waiters), m.spec, m.conflictLost, m.probeLost)
	}
	for _, e := range c.lineSubs {
		st := "absent"
		if l := c.cache.Probe(e.line); l != nil {
			st = l.State.String()
		}
		s += fmt.Sprintf("\n  subs %s n=%d state=%s", e.line, len(e.subs), st)
	}
	for _, d := range c.eng.PeekDeferred() {
		s += fmt.Sprintf("\n  deferred line=%s stamp=%v", d.Line, d.Stamp)
	}
	return s
}

func (c *Controller) mustProbe(line memsys.Addr) *cache.Line {
	l := c.cache.Probe(line)
	if l == nil {
		panic(fmt.Sprintf("coherence: P%d expected line %s present", c.id, line))
	}
	return l
}

// ---------------------------------------------------------------------------
// Per-request state: short slices searched linearly
// ---------------------------------------------------------------------------

// wbEntry is a dirty line between eviction and write-back ordering.
type wbEntry struct {
	line memsys.Addr
	data memsys.LineData
}

// fillForward is the line a forward-only fill is passing to its waiters.
type fillForward struct {
	line  memsys.Addr
	data  memsys.LineData
	valid bool
}

// mshrFor returns the outstanding miss for line, or nil.
func (c *Controller) mshrFor(line memsys.Addr) *mshr {
	for _, m := range c.mshrs {
		if m.line == line {
			return m
		}
	}
	return nil
}

// removeMSHR takes m out of the outstanding misses, keeping issue order,
// and reports whether it was there.
func (c *Controller) removeMSHR(m *mshr) bool {
	for i, o := range c.mshrs {
		if o == m {
			c.mshrs = append(c.mshrs[:i], c.mshrs[i+1:]...)
			return true
		}
	}
	return false
}

// takeDraining removes and returns the drain-detached request with
// transaction id, or nil.
func (c *Controller) takeDraining(id uint64) *mshr {
	for i, m := range c.draining {
		if m.txnID == id {
			c.draining = append(c.draining[:i], c.draining[i+1:]...)
			return m
		}
	}
	return nil
}

// wbPendingFor returns the pending write-back of line, or nil.
func (c *Controller) wbPendingFor(line memsys.Addr) *wbEntry {
	for i := range c.wbPending {
		if c.wbPending[i].line == line {
			return &c.wbPending[i]
		}
	}
	return nil
}

// dropWBPending forgets the pending write-back of line.
func (c *Controller) dropWBPending(line memsys.Addr) {
	for i := range c.wbPending {
		if c.wbPending[i].line == line {
			c.wbPending = append(c.wbPending[:i], c.wbPending[i+1:]...)
			return
		}
	}
}

// takeSuperseded reports whether line's write-back was superseded, and
// forgets it.
func (c *Controller) takeSuperseded(line memsys.Addr) bool {
	for i, l := range c.wbSuperseded {
		if l == line {
			c.wbSuperseded = append(c.wbSuperseded[:i], c.wbSuperseded[i+1:]...)
			return true
		}
	}
	return false
}
