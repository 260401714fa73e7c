package coherence

// Machine reuse. Reset rewinds a quiescent system to construction state
// without re-allocating. Quiescence is the precondition: no bus transaction
// in flight, no MSHRs, no buffered stores, no transaction mid-flight in any
// engine. At such a point every per-request list a controller owns (MSHRs,
// drains, pending write-backs, the write buffer and read set) is
// necessarily empty, the rest is persistent architectural state (cleared),
// and all pooled bus messages, bus transactions and MSHRs are back on their
// free lists — which is why pooling can survive reuse untouched.

// reset rewinds the controller to the state newController constructs,
// keeping every array.
func (c *Controller) reset() {
	c.cache.Reset()
	c.wb.Discard()
	if c.sb != nil {
		c.sb.reset()
	}
	c.mshrs = c.mshrs[:0]
	c.draining = c.draining[:0]
	c.wbPending = c.wbPending[:0]
	c.wbSuperseded = c.wbSuperseded[:0]
	c.linkLine, c.linkValid = 0, false
	c.specReads.Clear()
	c.sbLoadForward = false
	// Spin-wait subscriptions and the commit waiter name a finished run's
	// operations; dropping them is required, not optional. Their arrays go
	// back to the free list.
	for _, e := range c.lineSubs {
		c.freeLineSubs(e.subs)
	}
	c.lineSubs = c.lineSubs[:0]
	c.commitArmed, c.commitSink, c.commitN = false, nil, 0
	c.fwd = fillForward{}
	c.stats = Stats{}
}

// reset empties the store buffer and drops its waiters, keeping every
// array.
func (sb *storeBuffer) reset() {
	sb.entries = sb.entries[:0]
	sb.draining = false
	sb.onEmpty.reset()
	sb.onSpace.reset()
}

// reset forgets which lines have migrated into the L2 (first-touch latency
// behaviour returns to construction state — this is observable timing state,
// so skipping it would break reuse determinism).
func (m *MemController) reset() { m.inL2.Reset() }

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
	s.lockLines.Reset()
	s.holders.reset()
}
