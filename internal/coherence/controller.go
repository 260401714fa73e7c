package coherence

import (
	"fmt"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/core"
	"tlrsim/internal/memsys"
	"tlrsim/internal/stamp"
)

// OpDone is the completion callback for a CPU-issued memory operation.
// ok=false means the operation was squashed because the transaction it
// belonged to aborted; val is then meaningless.
type OpDone func(val uint64, ok bool)

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

	// mustShare: another reader's GetS was ordered while ours was pending,
	// so the fill may not install Exclusive even if the supplier saw no
	// sharers at our own order point.
	mustShare bool

	// nackRetries counts NACK-and-retry rounds (NACK retention mode); the
	// backoff grows with it and a cap forces the lock fallback.
	nackRetries int

	// priority: the request has been NACKed past the pathological
	// threshold and reissues as a Priority transaction no owner may refuse
	// (the non-speculative forward-progress escalation).
	priority bool

	waiters []waiter
}

// waiter is a completion attached to an MSHR, run once the fill (or
// instant upgrade) lands. A load waiter receives the word at addr as this
// CPU then observes it, after the functional checker (when attached) has
// seen the load as part of transaction txSeq; any other waiter receives 0.
type waiter struct {
	done  OpDone
	addr  memsys.Addr
	load  bool
	txSeq uint64
}

// wake runs a waiter.
func (c *Controller) wake(w waiter) {
	if !w.load {
		w.done(0, true)
		return
	}
	v := c.localWord(w.addr)
	if c.sys.Check != nil {
		c.checkLoad(w.addr, v, w.txSeq)
	}
	w.done(v, true)
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

	mshrs map[memsys.Addr]*mshr

	// freeMSHRs recycles released MSHRs (see freeMSHR).
	freeMSHRs []*mshr

	// draining holds invalidated GetS requests (ordered before a writer)
	// detached from the line: their data, when it arrives, is forwarded to
	// the waiters that attached before the invalidation and nothing more.
	// Keyed by transaction id. New requests for the line reissue freshly.
	draining map[uint64]*mshr

	// wbPending holds dirty lines between eviction and write-back ordering
	// so the controller can still supply them (split-transaction race).
	wbPending map[memsys.Addr]memsys.LineData

	// wbSuperseded marks in-flight write-backs whose data was handed to a
	// new exclusive owner before the write-back ordered: memory must skip
	// them, or a stale write-back ordered after the new owner's fresher one
	// would corrupt memory.
	wbSuperseded map[memsys.Addr]bool

	// LL/SC link register.
	linkLine  memsys.Addr
	linkValid bool

	// specReads is the functional checker's view of the transaction's read
	// set: the first value observed per word (own buffered writes excluded).
	specReads map[memsys.Addr]uint64

	// drainForwarding is set while forward-only fill waiters run, exempting
	// those loads from the checker's equality test (they legally observe
	// pre-writer data).
	drainForwarding bool

	// sbLoadForward is set while a load forwards from the store buffer
	// (the buffered store has not reached its global ordering point, so the
	// checker must not compare against the shadow).
	sbLoadForward bool

	// lineSubs are spin-wait subscribers notified when the line changes
	// visibility (invalidation or fill).
	lineSubs map[memsys.Addr][]func()

	// commitWaiter is armed while the CPU sits at transaction end waiting
	// for all write-buffer lines to reach a writable state (§2.2 step 4).
	commitWaiter func()

	// fillForward passes values to waiters when a fill cannot be installed
	// (a GetS that was invalidated while pending): the load was ordered
	// before the writer, so it legally observes the pre-write data, but the
	// line must not be cached.
	fillForward map[memsys.Addr]uint64

	// OnAbort is invoked (synchronously, in kernel context) whenever the
	// in-flight transaction is squashed; the CPU uses it to unblock the
	// current operation and restart the thread.
	OnAbort func(core.Reason)

	stats Stats
}

func newController(s *System, id int, eng *core.Engine) *Controller {
	return &Controller{
		sys:          s,
		id:           id,
		cache:        cache.New(s.cfg.Cache),
		wb:           cache.NewWriteBuffer(s.cfg.WriteBufferLines),
		sb:           newStoreBuffer(s.cfg.StoreBufferEntries),
		eng:          eng,
		mshrs:        make(map[memsys.Addr]*mshr),
		draining:     make(map[uint64]*mshr),
		wbPending:    make(map[memsys.Addr]memsys.LineData),
		wbSuperseded: make(map[memsys.Addr]bool),
		specReads:    make(map[memsys.Addr]uint64),
		lineSubs:     make(map[memsys.Addr][]func()),
		fillForward:  make(map[memsys.Addr]uint64),
	}
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
// exclusive state up front (RMW-predictor collapse, §3.1.2). done fires when
// the value is available (possibly immediately, in the current event).
func (c *Controller) Load(a memsys.Addr, wantExcl bool, done OpDone) {
	if v, ok := c.LoadHit(a, wantExcl); ok {
		done(v, true)
		return
	}
	c.LoadMiss(a, wantExcl, done)
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
func (c *Controller) LoadMiss(a memsys.Addr, wantExcl bool, done OpDone) {
	c.stats.Loads++
	txSeq := c.eng.TxSeq()
	c.stats.Misses++
	spec := c.eng.Speculating()
	line := a.Line()
	excl := wantExcl || (spec && c.eng.WantExclusiveRead(line))
	m := c.ensureMSHR(line, excl, spec, false)
	// The fill path installs (or forwards) the line before waking the
	// waiter, which then reads the word this CPU observes.
	m.waiters = append(m.waiters, waiter{done: done, addr: a, load: true, txSeq: txSeq})
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
		if _, seen := c.specReads[a]; !seen {
			c.specReads[a] = v
		}
		return
	}
	c.sys.Check.PlainLoad(c.id, a, v, c.drainForwarding || c.sbLoadForward)
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
	// passes the value through fillForward.
	return c.fillForward[a]
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
			if _, inFlight := c.mshrs[line]; !inFlight {
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
func (c *Controller) Store(a memsys.Addr, v uint64, done OpDone) {
	switch c.StoreFast(a, v) {
	case StoreDone:
		done(v, true)
		return
	case StoreAborted:
		done(0, false)
		return
	}
	c.stats.Stores++
	// Non-speculative path: through the TSO store buffer when enabled.
	if c.sb != nil {
		// Buffer full: the store (and the processor) stalls for space.
		c.sb.whenSpace(func() { c.sbStore(a, v, done) })
		return
	}
	c.storeExec(a, v, done)
}

// storeExec performs a non-speculative store against the cache, blocking
// until the line is writable (the drain path of the store buffer, or the
// direct path when no buffer is configured).
func (c *Controller) storeExec(a memsys.Addr, v uint64, done OpDone) {
	line := a.Line()
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.cache.Touch(l)
		l.Data[a.WordIndex()] = v
		l.State = cache.Modified
		c.checkStore(a, v)
		c.notifyLine(line)
		done(v, true)
		return
	}
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, waiter{done: func(_ uint64, ok bool) {
		if !ok {
			done(0, false)
			return
		}
		l := c.cache.Probe(line)
		if l == nil || !l.State.Writable() {
			// Lost the line between fill and this waiter (stolen by a
			// chained GetX). Retry the store.
			c.storeExec(a, v, done)
			return
		}
		c.cache.Touch(l)
		l.Data[a.WordIndex()] = v
		l.State = cache.Modified
		c.checkStore(a, v)
		c.notifyLine(line)
		done(v, true)
	}})
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
func (c *Controller) LL(a memsys.Addr, done OpDone) {
	c.Load(a, false, func(v uint64, ok bool) {
		if ok && c.cache.Probe(a.Line()) != nil {
			c.linkLine = a.Line()
			c.linkValid = true
		} else {
			c.linkValid = false
		}
		done(v, ok)
	})
}

// SC performs a store-conditional of v to a; done's val is 1 on success, 0
// on failure. Inside a transaction SC behaves as a buffered store (an inner
// lock treated as data, §4): atomicity is guaranteed by the transaction.
func (c *Controller) SC(a memsys.Addr, v uint64, done OpDone) {
	if c.eng.Speculating() {
		c.Store(a, v, func(_ uint64, ok bool) { done(1, ok) })
		return
	}
	line := a.Line()
	if c.sb != nil && !c.sb.empty() {
		c.Fence(func() { c.SC(a, v, done) })
		return
	}
	if !c.linkValid || c.linkLine != line {
		done(0, true)
		return
	}
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		l.Data[a.WordIndex()] = v
		l.State = cache.Modified
		c.linkValid = false
		c.checkStore(a, v)
		c.notifyLine(line)
		done(1, true)
		return
	}
	// Need write permission; the link may break while we wait.
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, waiter{done: func(_ uint64, ok bool) {
		if !ok {
			done(0, false)
			return
		}
		l := c.cache.Probe(line)
		if !c.linkValid || c.linkLine != line || l == nil || !l.State.Writable() {
			done(0, true) // SC failed
			return
		}
		l.Data[a.WordIndex()] = v
		l.State = cache.Modified
		c.linkValid = false
		c.checkStore(a, v)
		c.notifyLine(line)
		done(1, true)
	}})
}

// Swap atomically exchanges v with the word at a, returning the old value
// (MCS enqueue primitive). Non-speculatively it holds the line in M across
// the read-modify-write; speculatively it is a load + buffered store.
func (c *Controller) Swap(a memsys.Addr, v uint64, done OpDone) {
	if c.eng.Speculating() {
		c.Load(a, true, func(old uint64, ok bool) {
			if !ok {
				done(0, false)
				return
			}
			c.Store(a, v, func(_ uint64, ok2 bool) { done(old, ok2) })
		})
		return
	}
	c.rmwNonSpec(a, func(old uint64) (uint64, bool) { return v, true }, done)
}

// CAS atomically compares the word at a with old and, if equal, stores new.
// done's val is the observed value.
func (c *Controller) CAS(a memsys.Addr, old, newv uint64, done OpDone) {
	if c.eng.Speculating() {
		c.Load(a, true, func(cur uint64, ok bool) {
			if !ok {
				done(0, false)
				return
			}
			if cur != old {
				done(cur, true)
				return
			}
			c.Store(a, newv, func(_ uint64, ok2 bool) { done(cur, ok2) })
		})
		return
	}
	c.rmwNonSpec(a, func(cur uint64) (uint64, bool) { return newv, cur == old }, done)
}

// FetchAdd atomically adds delta to the word at a, returning the old value.
func (c *Controller) FetchAdd(a memsys.Addr, delta uint64, done OpDone) {
	if c.eng.Speculating() {
		c.Load(a, true, func(old uint64, ok bool) {
			if !ok {
				done(0, false)
				return
			}
			c.Store(a, old+delta, func(_ uint64, ok2 bool) { done(old, ok2) })
		})
		return
	}
	c.rmwNonSpec(a, func(old uint64) (uint64, bool) { return old + delta, true }, done)
}

// rmwNonSpec obtains the line in a writable state and applies fn atomically.
// fn returns the new value and whether to write it. Atomics are fences
// under TSO: buffered stores drain first.
func (c *Controller) rmwNonSpec(a memsys.Addr, fn func(old uint64) (uint64, bool), done OpDone) {
	if c.sb != nil && !c.sb.empty() {
		c.Fence(func() { c.rmwNonSpec(a, fn, done) })
		return
	}
	line := a.Line()
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.cache.Touch(l)
		old := l.Data[a.WordIndex()]
		nv, write := fn(old)
		if write {
			l.Data[a.WordIndex()] = nv
			l.State = cache.Modified
		}
		c.checkRMW(a, old, nv, write)
		if write {
			c.notifyLine(line)
		}
		done(old, true)
		return
	}
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, waiter{done: func(_ uint64, ok bool) {
		if !ok {
			done(0, false)
			return
		}
		l := c.cache.Probe(line)
		if l == nil || !l.State.Writable() {
			c.rmwNonSpec(a, fn, done) // line stolen; retry
			return
		}
		old := l.Data[a.WordIndex()]
		nv, write := fn(old)
		if write {
			l.Data[a.WordIndex()] = nv
			l.State = cache.Modified
		}
		c.checkRMW(a, old, nv, write)
		if write {
			c.notifyLine(line)
		}
		done(old, true)
	}})
}

// checkRMW feeds a completed atomic read-modify-write to the checker.
func (c *Controller) checkRMW(a memsys.Addr, old, nv uint64, wrote bool) {
	if c.sys.Check != nil {
		c.sys.Check.PlainRMW(c.id, a, old, nv, wrote)
	}
}

// SpecRead marks the line containing a as transactionally read without
// loading a value; used at transaction begin to put the elided lock word in
// the read set so any writer to the lock aborts us (§2.2: the lock is kept
// in shared state; any write triggers invalidations).
func (c *Controller) SpecRead(a memsys.Addr, done OpDone) {
	c.Load(a, false, done)
}

// SubscribeLine registers fn to run once when the visibility of line next
// changes (invalidation, fill, or local write) — the spin-wait mechanism.
func (c *Controller) SubscribeLine(line memsys.Addr, fn func()) {
	line = line.Line()
	c.lineSubs[line] = append(c.lineSubs[line], fn)
}

func (c *Controller) notifyLine(line memsys.Addr) {
	line = line.Line()
	subs := c.lineSubs[line]
	if len(subs) == 0 {
		return
	}
	delete(c.lineSubs, line)
	for _, fn := range subs {
		fn()
	}
}

// ---------------------------------------------------------------------------
// MSHR and bus request machinery
// ---------------------------------------------------------------------------

// ensureWritable guarantees an in-flight request that will leave the line
// writable: an Upgrade if we hold it shared, else a GetX.
func (c *Controller) ensureWritable(line memsys.Addr, spec, specWrite bool) *mshr {
	if m, ok := c.mshrs[line]; ok {
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
	if m, ok := c.mshrs[line]; ok {
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
	c.mshrs[line] = m
	c.hold(line)
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
	*m = mshr{chain: m.chain[:0], pendingProbes: m.pendingProbes[:0], waiters: m.waiters[:0]}
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
			line: ^memsys.Addr(0), kind: bus.Kind(-1), txnID: ^uint64(0), upstream: -2,
			ordered: true, upgradeAfterFill: true, handedOff: true,
			chain: m.chain[:0], pendingProbes: m.pendingProbes[:0], waiters: m.waiters[:0],
		}
	}
	c.freeMSHRs = append(c.freeMSHRs, m)
}

// enforceTimestampOrderAfterNewMiss aborts the transaction if a deferred
// request with an earlier timestamp exists on a different line than the new
// miss: the single-block relaxation no longer applies and continuing to
// defer could deadlock.
func (c *Controller) enforceTimestampOrderAfterNewMiss(newLine memsys.Addr) {
	if !c.eng.Speculating() || c.eng.Policy().StrictTimestamps {
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
	m, ok := c.mshrs[a.Line()]
	return ok && m.spec
}

// otherSpecMissOutstanding reports whether the transaction has an unfilled
// miss on a line other than exclude (the §3.2 relaxation guard).
func (c *Controller) otherSpecMissOutstanding(exclude memsys.Addr) bool {
	for line, m := range c.mshrs {
		if line != exclude && m.spec {
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
		c.id, c.eng.Mode(), c.eng.Aborted(), c.eng.DeferredLen(), c.wb.LineCount(), c.commitWaiter != nil)
	for line, m := range c.mshrs {
		s += fmt.Sprintf("\n  mshr %s kind=%v ordered=%v chain=%d handedOff=%v upstream=%d(%v) waiters=%d spec=%v conflictLost=%v probeLost=%v",
			line, m.kind, m.ordered, len(m.chain), m.handedOff, m.upstream, m.hasUpstream, len(m.waiters), m.spec, m.conflictLost, m.probeLost)
	}
	for line, subs := range c.lineSubs {
		st := "absent"
		if l := c.cache.Probe(line); l != nil {
			st = l.State.String()
		}
		s += fmt.Sprintf("\n  subs %s n=%d state=%s", line, len(subs), st)
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
