package coherence

import (
	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/core"
	"tlrsim/internal/memsys"
	"tlrsim/internal/stamp"
	"tlrsim/internal/trace"
)

// ---------------------------------------------------------------------------
// Snooper interface (address network)
// ---------------------------------------------------------------------------

// SnoopOwner reports whether this controller is the supplier of record for
// line: it holds the line in an owned state it has not passed on, it holds
// the line's dirty data awaiting write-back ordering, or it has an ordered
// ownership-taking request in flight (pending owner, §3.1.1).
func (c *Controller) SnoopOwner(line memsys.Addr) bool {
	line = line.Line()
	if _, ok := c.wbPending[line]; ok {
		return true
	}
	if l := c.cache.Probe(line); l != nil && l.State.IsOwner() && !l.Masked {
		return true
	}
	if m, ok := c.mshrs[line]; ok && m.ordered && m.kind != bus.GetS && !m.handedOff {
		return true
	}
	return false
}

// SnoopShared reports whether this controller holds (or is about to hold)
// any valid copy of line.
func (c *Controller) SnoopShared(line memsys.Addr) bool {
	line = line.Line()
	if l := c.cache.Probe(line); l != nil {
		return true
	}
	if m, ok := c.mshrs[line]; ok && m.ordered && !m.invalidated {
		return true
	}
	return false
}

// SnoopNack decides NACK-based ownership retention (§3's alternative to
// deferral, enabled by core.Policy.RetentionNACK): a pending owner refuses
// every request (it has no data to give), and a data-holding owner refuses
// exactly the requests the conflict-resolution algorithm says to make wait.
// Consulted once per transaction by the bus, for the owner of record only.
func (c *Controller) SnoopNack(t *bus.Txn) bool {
	if !c.eng.Policy().RetentionNACK || t.Priority {
		// A Priority escalation may never be refused (the bus already skips
		// this call for it; the guard here keeps the invariant local).
		return false
	}
	line := t.Line
	if m, ok := c.mshrs[line]; ok && m.ordered && m.kind != bus.GetS {
		// Pending owner: no data to supply; the requester must retry.
		c.stats.NacksSent++
		return true
	}
	l := c.cache.Probe(line)
	if l == nil || !l.State.IsOwner() {
		return false
	}
	conflict := false
	if c.eng.Speculating() && !c.eng.Aborted() {
		if t.Kind == bus.GetS {
			conflict = l.SpecWritten
		} else {
			conflict = l.Spec()
		}
	}
	if !conflict {
		return false
	}
	var dec core.Decision
	if t.Stamp.Valid {
		dec = c.eng.ResolveIncoming(t.Stamp, line, true, c.otherSpecMissOutstanding(line))
	} else {
		dec = c.eng.ResolveUntimestamped(line, true)
	}
	if dec == core.Defer {
		c.stats.NacksSent++
		c.sys.TraceStamp(c.id, trace.Nack, line, t.Stamp)
		return true
	}
	return false
}

// Snoop processes one globally-ordered address transaction.
func (c *Controller) Snoop(t *bus.Txn, owner int, shared bool) {
	if t.Src == c.id {
		c.snoopOwn(t, owner, shared)
		return
	}
	if t.Kind == bus.WriteBack {
		return // write-backs only concern memory and the issuer
	}
	if t.Nacked {
		return // void for everyone but the requester (which retries)
	}
	line := t.Line
	l := c.cache.Probe(line)

	if t.Kind == bus.Upgrade && !t.SrcHolds {
		// Void upgrade: the copy the requester meant to promote was already
		// invalidated; it converts to a full GetX at its own snoop and no
		// other cache may react (reacting could destroy the only live copy).
		return
	}

	// Current owner with valid data.
	if l != nil && !l.Masked && l.State.IsOwner() {
		c.snoopAsOwner(t, l)
		return
	}

	// Pending owner of record: the request joins our coherence chain.
	if m, ok := c.mshrs[line]; ok && m.ordered && m.kind != bus.GetS {
		if t.Kind == bus.Upgrade {
			return // void: the upgrader's copy died with our GetX
		}
		if !m.handedOff {
			c.chainAtPending(m, t)
			if t.Kind != bus.GetS {
				// Ownership of record moves on; later requests chain at
				// the new pending owner.
				m.handedOff = true
			}
		}
		return
	}

	// A pending GetS loses exclusivity eligibility when another reader's
	// GetS is ordered behind it.
	if m, ok := c.mshrs[line]; ok && m.kind == bus.GetS && t.Kind == bus.GetS {
		m.mustShare = true
	}

	// A pending ORDERED GetS is invalidated by a later-ordered ownership
	// request: detach it so its (pre-writer) data only reaches the waiters
	// already attached; anything later must re-request. An un-ordered GetS
	// (e.g. awaiting a NACK retry) has no data coming and stays put.
	if m, ok := c.mshrs[line]; ok && m.ordered && m.kind == bus.GetS && t.Kind != bus.GetS {
		m.invalidated = true
		delete(c.mshrs, line)
		c.release(line)
		c.noteMSHRs()
		c.draining[m.txnID] = m
		if c.linkValid && c.linkLine == line {
			c.linkValid = false
		}
		if m.spec && c.eng.Speculating() {
			c.eng.NoteUpgradeViolation(line)
			c.AbortTxn(core.ReasonUpgrade)
		}
		return
	}

	// Supplier-of-record duty for dirty data awaiting write-back ordering.
	if d, ok := c.wbPending[line]; ok {
		c.supplyFromWBPending(t, d)
		return
	}

	if l == nil || l.Masked {
		// Masked: lame-duck supplier for an earlier deferral; later
		// requests chain at the pending owner of record, not here.
		// Timestamp order against such chained requests is enforced by the
		// probe machinery: the pending owner forwards the requester's
		// timestamp upstream (chainAtPending → probeUpstream) and we
		// re-resolve on delivery (deliverProbe).
		return
	}
	// Plain sharer.
	if t.Kind == bus.GetX || t.Kind == bus.Upgrade {
		c.invalidateLocal(l, line)
	}
}

// snoopOwn handles the controller's own transaction reaching its global
// order point.
func (c *Controller) snoopOwn(t *bus.Txn, owner int, shared bool) {
	switch t.Kind {
	case bus.WriteBack:
		delete(c.wbPending, t.Line)
		c.release(t.Line)
		if c.wbSuperseded[t.Line] {
			// A GetX consumed this data before the write-back ordered; the
			// requester now owns a fresher copy, so memory must not apply
			// the stale payload (its own write-back could order first).
			t.Cancel = true
			delete(c.wbSuperseded, t.Line)
		}
		return
	case bus.Upgrade:
		m, ok := c.mshrs[t.Line]
		if !ok || m.txnID != t.ID {
			return
		}
		m.ordered = true
		l := c.cache.Probe(t.Line)
		if l != nil && (l.State == cache.Shared || l.State == cache.Owned) {
			// Upgrade succeeds instantly: all other sharers invalidate at
			// this same snoop event.
			l.State = cache.Modified
			c.finishMSHR(m, l)
			return
		}
		// Our shared copy was stolen before the upgrade ordered: convert to
		// a full GetX (the upgrade transaction completes without effect).
		// The conversion is NOT yet ordered — leaving ordered set would make
		// this controller claim supplier-of-record for its own unordered
		// request and starve it of data.
		m.ordered = false
		c.completeTxn(m)
		m.kind = bus.GetX
		c.issueTxn(m)
		return
	default:
		if t.Nacked {
			c.nackedOwnRequest(t)
			return
		}
		m, ok := c.mshrs[t.Line]
		if !ok || m.txnID != t.ID {
			return
		}
		m.ordered = true
		if d, wbOK := c.wbPending[t.Line]; wbOK && owner == c.id {
			// Our own just-evicted dirty data races our re-fetch: no one
			// else can supply, so self-supply from the write-back buffer.
			// The closure copies what it needs: t is recycled once the
			// fill completes it.
			req, line := t.ID, t.Line
			c.sys.K.After(1, func() {
				c.Deliver(&bus.DataResp{Req: req, Line: line, Data: d, From: c.id})
			})
		}
	}
}

// nackedOwnRequest handles one of our requests being refused by the owner
// (NACK retention mode): the transaction is void, the slot is released, and
// the request retries with an escalating backoff. A request that had been
// drain-detached (an invalidation raced it) is re-armed first — its waiters
// were never served, so they must ride the retry.
func (c *Controller) nackedOwnRequest(t *bus.Txn) {
	m, ok := c.mshrs[t.Line]
	if !ok || m.txnID != t.ID {
		dm, drained := c.draining[t.ID]
		if !drained {
			return
		}
		// The void (nacked) request cannot legally forward pre-writer data:
		// it was never ordered. Re-arm it as a fresh miss.
		delete(c.draining, t.ID)
		if cur, live := c.mshrs[dm.line]; live {
			// A newer request for the line exists: its fill serves everyone.
			cur.waiters = append(cur.waiters, dm.waiters...)
			c.completeTxn(dm)
			c.freeMSHR(dm)
			return
		}
		dm.invalidated = false
		if !c.eng.Speculating() || c.eng.Aborted() {
			dm.spec = false
			dm.specWrite = false
		}
		c.mshrs[dm.line] = dm
		c.hold(dm.line)
		c.noteMSHRs()
		m = dm
	}
	m.ordered = false
	c.completeTxn(m)
	m.nackRetries++
	c.stats.NackRetries++
	if m.nackRetries > pathologicalNacks {
		if m.spec && c.eng.Speculating() && !c.eng.Aborted() {
			// Pathological refusal of a transactional miss: treat it like a
			// resource limit and take the lock (§3.3 guarantees progress).
			// The request itself dies here; its waiters are squashed by the
			// abort.
			delete(c.mshrs, m.line)
			c.release(m.line)
			c.noteMSHRs()
			c.AbortTxn(core.ReasonResource)
			c.freeMSHR(m)
			return
		}
		// A non-speculative miss has no transaction to fall back on, and
		// until it completes the thread is stuck — past the same threshold
		// its retry escalates to a Priority request the owner may not NACK,
		// extending the forward-progress guarantee to plain accesses (they
		// otherwise only die at the stall watchdog).
		m.priority = true
	}
	// The retry identifies its request by line and transaction ID, not by
	// pointer: if the miss is satisfied meanwhile, its MSHR is recycled and
	// may come back for the same line under a newer transaction.
	line, id := m.line, m.txnID
	backoff := nackBackoff(c.eng.Policy().Seed, c.id, m.nackRetries)
	c.sys.K.After(backoff, func() {
		cur, still := c.mshrs[line]
		if !still || cur.txnID != id {
			return // the miss was satisfied or replaced meanwhile
		}
		c.issueTxn(cur)
	})
}

// pathologicalNacks is the refusal count past which a request stops
// retrying politely: a transactional miss converts to lock fallback, a
// plain miss escalates to a Priority reissue.
const pathologicalNacks = 100

// nackBackoff is the retry delay after a request's n-th NACK: exponential
// from nackBackoffBase up to the nackBackoffCap shift, plus a deterministic
// jitter in [0, delay) mixed from (machine seed, cpu, retry ordinal) — the
// StartJitter idiom, no global RNG. The jitter is what desynchronises two
// NACK-storming requesters: under the old linear 10*n rule both recomputed
// identical delays every round and retried in lockstep forever.
func nackBackoff(seed int64, cpu, retries int) uint64 {
	shift := uint(retries - 1)
	if shift > nackBackoffCap {
		shift = nackBackoffCap
	}
	d := uint64(nackBackoffBase) << shift
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(cpu+1)*0xbf58476d1ce4e5b9 + uint64(retries)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return d + x%d
}

const (
	nackBackoffBase = 16
	nackBackoffCap  = 8 // delay plateaus at 4096 (+jitter < 8192) cycles
)

// chainAtPending appends an external request to the chain of our pending
// ownership request and sends the requester a marker so it knows its
// upstream neighbour (§3.1.1).
func (c *Controller) chainAtPending(m *mshr, t *bus.Txn) {
	c.stats.ChainedRequests++
	m.chain = append(m.chain, chainEntry{txn: t})
	c.sys.Trace(c.id, trace.MarkerSent, t.Line, "")
	c.sys.Bus.SendMarker(t.Src, t.ID, t.Line, c.id)
	// Conflict bookkeeping while we have no data: if the incoming request
	// has an earlier timestamp and conflicts with our transaction, we will
	// lose — propagate a probe toward the data holder so higher-priority
	// work is not stuck behind us (Figure 6).
	if m.spec && c.eng.Speculating() {
		conflicts := t.Kind != bus.GetS || m.specWrite
		if conflicts && t.Stamp.Valid {
			c.eng.ObserveConflict(t.Stamp, t.Line)
			if c.eng.StampBefore(t.Stamp, c.eng.Stamp()) {
				m.conflictLost = true
				c.probeUpstream(m, t.Stamp)
			}
		}
	} else if t.Stamp.Valid {
		// Non-transactional pending owner: we hold no stamp to compare,
		// but a transactional requester now waits behind us, and our own
		// request may be deferred at a speculating holder that has never
		// seen this timestamp (untimestamped requests are deferred as
		// carrying the latest timestamp in the system, §2.2 — the holder
		// resolved against US, not against whoever chains behind us).
		// Forward the probe so the data holder re-resolves against the
		// real timestamp. Without it the cycle of Figure 6 re-appears with
		// a plain access as the middle link: the holder defers us and
		// blocks on a line owned by the probing transaction, the probing
		// transaction waits behind us, and nobody advances.
		c.probeUpstream(m, t.Stamp)
	}
}

// snoopAsOwner handles a request for a line this cache owns with valid data.
func (c *Controller) snoopAsOwner(t *bus.Txn, l *cache.Line) {
	line := t.Line
	conflict := false
	if c.eng.Speculating() {
		if t.Kind == bus.GetS {
			conflict = l.SpecWritten
		} else {
			conflict = l.Spec()
		}
	}
	if conflict {
		if t.Kind == bus.Upgrade {
			// An upgrade completes instantly at the requester's own snoop
			// (no response to withhold), so it can never be deferred
			// (§3.1.2): the owner must service it and misspeculate.
			c.eng.NoteUpgradeViolation(line)
			c.AbortTxn(core.ReasonUpgrade)
			c.serviceAsOwner(t, c.mustProbe(line))
			return
		}
		var dec core.Decision
		if t.Stamp.Valid {
			dec = c.eng.ResolveIncoming(t.Stamp, line, true, c.otherSpecMissOutstanding(line))
		} else {
			dec = c.eng.ResolveUntimestamped(line, true)
			if dec == core.Service && c.eng.Policy().AbortOnUntimestamped {
				c.AbortTxn(core.ReasonUntimestamped)
			}
		}
		if dec == core.Defer {
			c.eng.PushDeferred(core.Deferred{Line: line, Stamp: t.Stamp, Payload: t, EnqueuedAt: uint64(c.sys.K.Now())})
			c.sys.TraceStamp(c.id, trace.Deferral, line, t.Stamp)
			c.sys.Metrics.NoteDeferral(c.id, uint64(c.sys.K.Now()))
			c.sys.Bus.SendMarker(t.Src, t.ID, line, c.id)
			if t.Kind != bus.GetS {
				// Ownership of record moves to the requester; we become a
				// masked holder until we answer at commit (or abort).
				l.Masked = true
			}
			return
		}
		// We lost: restart the transaction (giving up retained ownership
		// and servicing earlier deferred requests first), then service.
		c.AbortTxn(core.ReasonConflict)
		l = c.mustProbe(line) // abort never displaces the line
	}
	c.serviceAsOwner(t, l)
}

// serviceAsOwner supplies data (or permission) for a request on an owned,
// non-conflicting (or post-abort) line.
func (c *Controller) serviceAsOwner(t *bus.Txn, l *cache.Line) {
	switch t.Kind {
	case bus.GetS:
		c.sys.Bus.SendData(t.Src, t.ID, t.Line, &l.Data, c.id, true)
		if l.State == cache.Modified || l.State == cache.Exclusive {
			l.State = cache.Owned
		}
	case bus.GetX:
		c.sys.Bus.SendData(t.Src, t.ID, t.Line, &l.Data, c.id, false)
		c.invalidateLocal(l, t.Line)
	case bus.Upgrade:
		// Requester holds a valid shared copy; our owned copy dies.
		c.invalidateLocal(l, t.Line)
	}
}

// invalidateLocal drops a line on an external ownership request, with all
// the side effects: link break, spin wake-up, and transactional
// misspeculation when the line was in the read set of a transaction that
// holds it only shared (upgrade-induced violation, §3.1.2).
func (c *Controller) invalidateLocal(l *cache.Line, line memsys.Addr) {
	wasSpec := l.Spec()
	c.cache.Invalidate(line)
	c.release(line)
	if c.linkValid && c.linkLine == line {
		c.linkValid = false
	}
	if wasSpec && c.eng.Speculating() {
		c.eng.NoteUpgradeViolation(line)
		c.AbortTxn(core.ReasonUpgrade)
	}
	c.notifyLine(line)
}

// supplyFromWBPending services a request that raced our write-back.
func (c *Controller) supplyFromWBPending(t *bus.Txn, d memsys.LineData) {
	switch t.Kind {
	case bus.GetS:
		// The reader gets a copy; the write-back stays in flight and memory
		// will absorb it, making the data architecturally home.
		c.sys.Bus.SendData(t.Src, t.ID, t.Line, &d, c.id, false)
	case bus.GetX:
		// Ownership transfers to the requester: stop supplying and cancel
		// the in-flight write-back so its stale payload cannot clobber the
		// new owner's future one at memory.
		c.sys.Bus.SendData(t.Src, t.ID, t.Line, &d, c.id, false)
		delete(c.wbPending, t.Line)
		c.release(t.Line)
		c.wbSuperseded[t.Line] = true
	}
}

// probeUpstream forwards a conflicting timestamp toward the data holder, or
// queues it until the marker identifying our upstream neighbour arrives.
func (c *Controller) probeUpstream(m *mshr, ts stamp.Stamp) {
	if m.hasUpstream {
		c.sys.TraceStamp(c.id, trace.ProbeSent, m.line, ts)
		c.sys.Bus.SendProbe(m.upstream, m.line, ts, c.id)
		return
	}
	m.pendingProbes = append(m.pendingProbes, ts)
}

// ---------------------------------------------------------------------------
// Data network delivery
// ---------------------------------------------------------------------------

// Deliver handles data responses, markers, and probes.
func (c *Controller) Deliver(msg bus.Msg) {
	switch v := msg.(type) {
	case *bus.DataResp:
		c.deliverData(v)
	case *bus.Marker:
		if m, ok := c.mshrs[v.Line]; ok {
			m.upstream = v.From
			m.hasUpstream = true
			for _, ts := range m.pendingProbes {
				c.sys.Bus.SendProbe(m.upstream, m.line, ts, c.id)
			}
			m.pendingProbes = m.pendingProbes[:0]
		}
	case *bus.Probe:
		c.deliverProbe(v)
	}
}

func (c *Controller) deliverProbe(p *bus.Probe) {
	// Still pending ourselves: pass it further upstream. A transited probe
	// carrying a timestamp earlier than our transaction's also means a
	// conflicting OLDER transaction waits somewhere deeper in the chain
	// behind us; record it (diagnostic only — see the probeLost field for
	// why acting on it here is wrong).
	if m, ok := c.mshrs[p.Line]; ok && m.ordered {
		if m.spec && c.eng.Speculating() && p.Stamp.Valid &&
			c.eng.StampBefore(p.Stamp, c.eng.Stamp()) {
			m.probeLost = true
		}
		c.probeUpstream(m, p.Stamp)
		return
	}
	// We hold the data: lose if the probe carries an earlier timestamp than
	// our transaction and the line is in our data set.
	l := c.cache.Probe(p.Line)
	if l == nil || !l.Spec() || !c.eng.Speculating() {
		return
	}
	if c.eng.StampBefore(p.Stamp, c.eng.Stamp()) {
		c.eng.ObserveConflict(p.Stamp, p.Line)
		c.sys.TraceStamp(c.id, trace.ProbeLost, p.Line, p.Stamp)
		c.AbortTxn(core.ReasonProbe)
	}
}

func (c *Controller) deliverData(r *bus.DataResp) {
	if m, ok := c.draining[r.Req]; ok {
		c.finishDraining(m, r)
		return
	}
	m, ok := c.mshrs[r.Line]
	if !ok || m.txnID != r.Req {
		return // stale response for a retired or reissued MSHR
	}
	line := r.Line

	// Decide install state.
	var st cache.State
	if m.kind == bus.GetS {
		if r.Shared || m.mustShare {
			st = cache.Shared
		} else {
			st = cache.Exclusive
		}
	} else {
		if r.From == bus.MemID {
			st = cache.Exclusive // clean exclusive; silently upgrades to M on write
		} else {
			st = cache.Modified // dirty data handed cache-to-cache
		}
	}

	spec := m.spec && c.eng.Speculating() && !c.eng.Aborted()

	frame, ev, okIns := c.cache.Insert(line, st, r.Data)
	if !okIns {
		// Speculative footprint overflow: abort (clearing the pinned access
		// bits) and retry — the insert must then succeed.
		c.AbortTxn(core.ReasonResource)
		spec = false
		frame, ev, okIns = c.cache.Insert(line, st, r.Data)
		if !okIns {
			panic("coherence: insert failed after abort cleared pins")
		}
	}
	c.hold(line)
	if ev != nil {
		c.handleEviction(ev)
	}
	if spec {
		c.cache.MarkSpecRead(frame)
		if m.specWrite {
			c.cache.MarkSpecWritten(frame)
		}
	}

	c.finishMSHR(m, frame)
}

// finishDraining delivers a forward-only fill: the value was ordered before
// the invalidating writer, so the waiters that attached before the
// invalidation legally observe it, but the line is not cached.
func (c *Controller) finishDraining(m *mshr, r *bus.DataResp) {
	line := m.line
	delete(c.draining, m.txnID)
	c.completeTxn(m)
	for i := 0; i < memsys.WordsPerLine; i++ {
		c.fillForward[line+memsys.Addr(i*memsys.WordBytes)] = r.Data[i]
	}
	waiters := m.waiters
	m.waiters = nil
	c.drainForwarding = true
	for _, w := range waiters {
		c.wake(w)
	}
	c.drainForwarding = false
	for i := 0; i < memsys.WordsPerLine; i++ {
		delete(c.fillForward, line+memsys.Addr(i*memsys.WordBytes))
	}
	// The line is NOT cached: wake any spin subscriber registered during the
	// waiter callbacks so it re-fetches instead of sleeping on a line whose
	// invalidation it can never observe.
	c.notifyLine(line)
	m.waiters = waiters
	c.freeMSHR(m)
}

// finishMSHR completes a fill (or instant upgrade): the MSHR retires FIRST
// (so waiter callbacks that re-request the line get a fresh MSHR), then
// waiters run, chained requests are resolved, and commit readiness is
// re-checked.
func (c *Controller) finishMSHR(m *mshr, frame *cache.Line) {
	line := m.line
	if m.spec && c.eng.Speculating() && !c.eng.Aborted() && frame != nil {
		c.cache.MarkSpecRead(frame)
		if m.specWrite {
			c.cache.MarkSpecWritten(frame)
		}
	}

	chain := m.chain
	m.chain = nil
	waiters := m.waiters
	m.waiters = nil
	c.retireMSHR(m)

	for _, w := range waiters {
		c.wake(w)
	}

	// An upgrade requested mid-flight (load fill arrived shared but a store
	// meanwhile needs ownership). A waiter may already have issued it.
	if m.upgradeAfterFill {
		if len(chain) != 0 {
			panic("coherence: GetS fill with chain")
		}
		if l := c.cache.Probe(line); l != nil && !l.State.Writable() {
			c.ensureWritable(line, m.spec, m.specWrite)
		}
	}

	c.serviceChain(line, chain)
	c.notifyLine(line)
	c.checkCommit()
	m.chain, m.waiters = chain, waiters
	c.freeMSHR(m)
}

func (c *Controller) retireMSHR(m *mshr) {
	if _, ok := c.mshrs[m.line]; ok {
		delete(c.mshrs, m.line)
		c.release(m.line)
		c.noteMSHRs()
		c.completeTxn(m)
	}
}

// serviceChain resolves the requests that queued behind our pending request
// (in order). Conflicting ones are re-resolved now that data is here: defer
// (push to the deferred queue) or lose (abort, then service).
func (c *Controller) serviceChain(line memsys.Addr, chain []chainEntry) {
	for _, e := range chain {
		t := e.txn
		l := c.cache.Probe(line)
		if l == nil {
			// Already handed off (an earlier chain entry took ownership);
			// the new owner of record inherits responsibility. This can
			// only happen for mis-chained requests and should not occur.
			panic("coherence: chain service on absent line")
		}
		conflict := false
		if c.eng.Speculating() && !c.eng.Aborted() {
			if t.Kind == bus.GetS {
				conflict = l.SpecWritten
			} else {
				conflict = l.Spec()
			}
		}
		if conflict {
			var dec core.Decision
			if t.Stamp.Valid {
				dec = c.eng.ResolveIncoming(t.Stamp, line, true, c.otherSpecMissOutstanding(line))
			} else {
				dec = c.eng.ResolveUntimestamped(line, true)
				if dec == core.Service && c.eng.Policy().AbortOnUntimestamped {
					c.AbortTxn(core.ReasonUntimestamped)
				}
			}
			if dec == core.Defer {
				c.eng.PushDeferred(core.Deferred{Line: line, Stamp: t.Stamp, Payload: t, EnqueuedAt: uint64(c.sys.K.Now())})
				c.sys.TraceStamp(c.id, trace.Deferral, line, t.Stamp)
				c.sys.Metrics.NoteDeferral(c.id, uint64(c.sys.K.Now()))
				if t.Kind != bus.GetS {
					l.Masked = true
				}
				continue
			}
			c.AbortTxn(core.ReasonConflict)
			l = c.mustProbe(line)
		}
		c.serviceAsOwner(t, l)
	}
}

// handleEviction writes back dirty victims and keeps supplying their data
// until the write-back is ordered.
func (c *Controller) handleEviction(ev *cache.Evicted) {
	if c.linkValid && c.linkLine == ev.Tag {
		c.linkValid = false
	}
	c.notifyLine(ev.Tag)
	if !ev.State.Dirty() {
		c.release(ev.Tag)
		return
	}
	c.stats.Writebacks++
	c.wbPending[ev.Tag] = ev.Data
	c.hold(ev.Tag)
	t := c.sys.Bus.NewTxn()
	t.Kind, t.Line, t.Src, t.WBData = bus.WriteBack, ev.Tag, c.id, ev.Data
	c.sys.Bus.Issue(t)
}

// ---------------------------------------------------------------------------
// Transaction end: atomic commit and misspeculation recovery
// ---------------------------------------------------------------------------

// TryCommit attempts to commit the in-flight transaction (step 4 of
// Figure 3). If some written line is not yet held in a writable state the
// commit waits for the outstanding fills; done fires with ok=false if the
// transaction aborts in the meantime (the CPU then restarts it).
func (c *Controller) TryCommit(done func(ok bool)) {
	if !c.eng.Speculating() {
		panic("coherence: TryCommit outside speculation")
	}
	if c.eng.Aborted() {
		done(false)
		return
	}
	if !c.commitReady() {
		c.commitWaiter = func() { c.TryCommit(done) }
		return
	}
	c.doCommit()
	done(true)
}

func (c *Controller) commitReady() bool {
	// Step 4a of Figure 3: ALL blocks accessed within the transaction must
	// be available in the cache in an appropriate state — an outstanding
	// speculative miss (including the background lock-word check) blocks
	// the commit.
	for _, m := range c.mshrs {
		if m.spec {
			return false
		}
	}
	for _, line := range c.wb.Lines() {
		l := c.cache.Probe(line)
		if l == nil || !l.State.Writable() {
			return false
		}
	}
	return true
}

func (c *Controller) checkCommit() {
	if c.commitWaiter == nil {
		return
	}
	if c.eng.Aborted() || c.commitReady() {
		w := c.commitWaiter
		c.commitWaiter = nil
		w()
	}
}

// doCommit atomically drains the write buffer into the cache (all lines are
// writable, so this is a purely local, instantaneous operation: the atomic
// commit of §2.1), updates the logical clock, clears the access bits, and
// services the deferred queue in order (Figure 3 step 4).
func (c *Controller) doCommit() {
	if c.sys.Check != nil {
		c.sys.Check.CommitTxn(c.id, c.specReads, c.wb.Words())
	}
	c.sys.Metrics.NoteCommit(c.id, uint64(len(c.wb.Lines())))
	clear(c.specReads)
	for _, line := range c.wb.Lines() {
		l := c.mustProbe(line)
		c.wb.Drain(line, &l.Data)
		l.State = cache.Modified
		c.notifyLine(line)
	}
	deferred := c.eng.TakeDeferred()
	c.eng.ExitCritical(true)
	c.eng.Commit()
	c.sys.Trace(c.id, trace.TxnCommit, 0, "")
	c.cache.ClearSpecBits()
	for _, d := range deferred {
		c.serveDeferred(d)
	}
}

// AbortTxn squashes the in-flight transaction: the write buffer is
// discarded (failure atomicity), retained ownerships are given up by
// servicing the deferred queue in order, and the CPU is notified so the
// thread unwinds to its restart point.
func (c *Controller) AbortTxn(reason core.Reason) {
	if !c.eng.Abort(reason) {
		return
	}
	if c.sys.Check != nil {
		c.sys.Check.AbortTxn(c.id)
	}
	c.sys.Trace(c.id, trace.TxnAbort, 0, reason.String())
	c.sys.Metrics.NoteAbort(c.id)
	clear(c.specReads)
	c.wb.Discard()
	c.cache.ClearSpecBits()
	for _, m := range c.mshrs {
		m.spec = false
		m.specWrite = false
	}
	deferred := c.eng.TakeDeferred()
	for _, d := range deferred {
		c.serveDeferred(d)
	}
	c.commitWaiter = nil
	if c.OnAbort != nil {
		c.OnAbort(reason)
	}
}

// Deschedule models the operating system preempting the thread mid-critical
// section (§4 stability): the speculative state is discarded and the lock
// is left free for other threads.
func (c *Controller) Deschedule() {
	c.sys.Trace(c.id, trace.Deschedule, 0, "")
	c.AbortTxn(core.ReasonExplicit)
}

// serveDeferred answers one deferred request with the (now architecturally
// committed) data.
func (c *Controller) serveDeferred(d core.Deferred) {
	t := d.Payload.(*bus.Txn)
	c.sys.TraceStamp(c.id, trace.DeferService, d.Line, d.Stamp)
	now := uint64(c.sys.K.Now())
	c.sys.Metrics.NoteDeferServed(now, now-d.EnqueuedAt)
	l := c.mustProbe(d.Line)
	switch t.Kind {
	case bus.GetS:
		c.sys.Bus.SendData(t.Src, t.ID, d.Line, &l.Data, c.id, true)
		if l.State == cache.Modified || l.State == cache.Exclusive {
			l.State = cache.Owned
		}
	default: // GetX (Upgrade cannot be deferred)
		c.sys.Bus.SendData(t.Src, t.ID, d.Line, &l.Data, c.id, false)
		c.cache.Invalidate(d.Line)
		c.release(d.Line)
		if c.linkValid && c.linkLine == d.Line {
			c.linkValid = false
		}
		c.notifyLine(d.Line)
	}
}
