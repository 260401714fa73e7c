package coherence

// Machine reuse. Reset rewinds a quiescent system to construction state
// without re-allocating. Quiescence is the precondition: no bus transaction
// in flight, no MSHRs, no buffered stores, no transaction mid-flight in any
// engine. At such a point every map the controllers own holds only either
// persistent architectural state (cleared) or per-request bookkeeping
// (necessarily empty), and all pooled bus messages, bus transactions and
// MSHRs are back on their free lists — which is why pooling can survive
// reuse untouched.

// reset rewinds the controller to the state newController constructs,
// keeping every map and buffer allocation.
func (c *Controller) reset() {
	c.cache.Reset()
	c.wb.Discard()
	if c.sb != nil {
		c.sb.reset()
	}
	clear(c.mshrs)
	clear(c.draining)
	clear(c.wbPending)
	clear(c.wbSuperseded)
	c.linkLine, c.linkValid = 0, false
	clear(c.specReads)
	c.drainForwarding = false
	c.sbLoadForward = false
	// Stale spin-wait subscribers and commit waiters are closures over a
	// finished run's thread state; dropping them is required, not optional.
	clear(c.lineSubs)
	c.commitWaiter = nil
	clear(c.fillForward)
	c.stats = Stats{}
}

// reset empties the store buffer and drops its callbacks.
func (sb *storeBuffer) reset() {
	sb.entries = sb.entries[:0]
	sb.draining = false
	sb.onEmpty = nil
	sb.onSpace = nil
}

// reset forgets which lines have migrated into the L2 (first-touch latency
// behaviour returns to construction state — this is observable timing state,
// so skipping it would break reuse determinism).
func (m *MemController) reset() { clear(m.inL2) }

// Reset rewinds the whole memory system to construction state. The caller
// (proc.Machine.Reset) has already verified quiescence and reset the
// engines; kernel reset is also the caller's job.
func (s *System) Reset() {
	s.Bus.Reset()
	s.Mem.Reset()
	for _, c := range s.Ctrls {
		c.reset()
	}
	s.MemC.reset()
	if s.Check != nil {
		s.Check.Reset()
	}
	if s.Tracer != nil {
		s.Tracer.Reset()
	}
	clear(s.lockLines)
	s.holders.reset()
}
