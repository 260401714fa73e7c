// Package coherence binds the cache arrays to the bus with a MOESI broadcast
// snooping protocol modelled on the Sun Gigaplane (paper §5.3 / Table 2) and
// implements the mechanism half of TLR: request deferral, marker and probe
// propagation, atomic commit of the speculative write buffer, and
// misspeculation recovery. Every policy decision is delegated to the
// per-processor core.Engine.
//
// The protocol is split-transaction: a request is globally ordered when the
// address bus grants it, and the owner-of-record changes at that instant even
// though data arrives arbitrarily later over the data network. Pending owners
// track successor requests in their MSHRs (the coherence chains of §3.1.1).
package coherence

import (
	"cmp"
	"fmt"
	"slices"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/checker"
	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
	"tlrsim/internal/stamp"
	"tlrsim/internal/telemetry"
	"tlrsim/internal/trace"
)

// Config holds memory-system parameters (Table 2 values are the defaults in
// the root package).
type Config struct {
	Cache            cache.Config
	Bus              bus.Config
	L2Lat            uint64 // L2 hit latency (12)
	MemLat           uint64 // memory access latency (70)
	WriteBufferLines int    // speculative write buffer capacity in lines (64)

	// StoreBufferEntries enables a TSO store buffer for non-speculative
	// stores (0 = blocking stores). Stores retire into it in one cycle and
	// drain to the cache in order in the background; atomics and
	// transaction boundaries fence on it.
	StoreBufferEntries int
}

// System is one simulated shared-memory multiprocessor.
type System struct {
	K     *sim.Kernel
	Bus   *bus.Bus
	Mem   *memsys.Memory
	Ctrls []*Controller
	MemC  *MemController

	// Check, when attached, is the functional checker validating every
	// commit and plain access against an architectural shadow (§5.3).
	Check *checker.Checker

	// Tracer, when attached, records structured protocol events.
	Tracer *trace.Tracer

	// Metrics, when attached, is the observability instrument set (nil when
	// disabled; every method on it is nil-safe).
	Metrics *telemetry.Set

	// Faults, when attached, is the deterministic fault injector (nil when
	// disabled; every method on it is nil-safe).
	Faults *fault.Injector

	cfg       Config
	lockLines memsys.LineSet

	// holders is the per-line snoop filter the bus polls through.
	holders *holderSet
}

// SetFaults attaches (or with nil detaches) the fault injector on the
// system and every component holding its own reference (bus arbitration and
// per-CPU victim caches).
func (s *System) SetFaults(in *fault.Injector) {
	s.Faults = in
	s.Bus.SetFaults(in)
	for _, c := range s.Ctrls {
		c.cache.SetFaults(in)
	}
}

// AttachChecker enables the functional checker; workload Setup writes are
// mirrored into its shadow automatically.
func (s *System) AttachChecker(c *checker.Checker) {
	s.Check = c
	s.Mem.OnSetupWrite = c.Preload
}

// Trace records a protocol event if tracing is attached.
func (s *System) Trace(cpu int, kind trace.Kind, line memsys.Addr, info string) {
	if s.Tracer != nil {
		s.Tracer.Record(trace.Event{At: s.K.Now(), CPU: cpu, Kind: kind, Line: line, Info: info})
	}
}

// TraceStamp records a protocol event annotated with a timestamp. The stamp
// is formatted only when a tracer is attached: the snoop-path call sites are
// hot, and the format would otherwise be paid on every conflict resolution.
func (s *System) TraceStamp(cpu int, kind trace.Kind, line memsys.Addr, ts stamp.Stamp) {
	if s.Tracer != nil {
		s.Tracer.Record(trace.Event{At: s.K.Now(), CPU: cpu, Kind: kind, Line: line, Info: ts.String()})
	}
}

// NewSystem wires n processors' cache controllers, the memory controller,
// and the bus. Engines are supplied per CPU so schemes and policies can vary
// in tests.
func NewSystem(k *sim.Kernel, n int, cfg Config, engines []*core.Engine) *System {
	if len(engines) != n {
		panic("coherence: need one engine per CPU")
	}
	s := &System{
		K:       k,
		Mem:     memsys.NewMemory(),
		cfg:     cfg,
		holders: newHolderSet(n),
	}
	s.Bus = bus.New(k, cfg.Bus, s.holders)
	s.Ctrls = make([]*Controller, n)
	for i := 0; i < n; i++ {
		s.Ctrls[i] = newController(s, i, engines[i])
		s.Bus.Attach(i, s.Ctrls[i], s.Ctrls[i])
	}
	s.MemC = newMemController(s)
	s.Bus.Attach(bus.MemID, s.MemC, s.MemC)
	return s
}

// RegisterLock marks a line as holding a lock variable, for stall
// attribution (Figure 11's lock/non-lock breakdown).
func (s *System) RegisterLock(a memsys.Addr) { s.lockLines.Add(a) }

// IsLockLine reports whether the line holds a registered lock.
func (s *System) IsLockLine(a memsys.Addr) bool { return s.lockLines.Has(a) }

// CheckCoherence validates the global single-writer/multi-reader invariant
// and owner uniqueness, and that the snoop filter names every controller
// holding state (CheckHolders); tests call it at quiescent points. Of
// several violating lines it reports the lowest.
func (s *System) CheckCoherence() error {
	if err := s.CheckHolders(); err != nil {
		return err
	}
	type holder struct {
		cpu int
		st  cache.State
	}
	type lineCopy struct {
		line memsys.Addr
		holder
	}
	var copies []lineCopy
	for _, c := range s.Ctrls {
		c.cache.ForEachValid(func(l *cache.Line) {
			copies = append(copies, lineCopy{l.Tag, holder{c.id, l.State}})
		})
	}
	slices.SortStableFunc(copies, func(a, b lineCopy) int { return cmp.Compare(a.line, b.line) })
	for len(copies) > 0 {
		n, writable, owners := 0, 0, 0
		for ; n < len(copies) && copies[n].line == copies[0].line; n++ {
			if copies[n].st.Writable() {
				writable++
			}
			if copies[n].st.IsOwner() {
				owners++
			}
		}
		var what string
		switch {
		case writable > 1:
			what = fmt.Sprintf("writable in %d caches", writable)
		case writable == 1 && n > 1:
			what = "writable alongside other copies"
		case owners > 1:
			what = fmt.Sprintf("has %d owners", owners)
		}
		if what != "" {
			hs := make([]holder, n)
			for i := range hs {
				hs[i] = copies[i].holder
			}
			return fmt.Errorf("line %s %s: %v", copies[0].line, what, hs)
		}
		copies = copies[n:]
	}
	return nil
}

// CheckHolders reports a controller whose state the snoop filter does not
// cover, so that the bus would skip a snoop that mattered:
//
//   - a valid cache line, a pending write-back, or an ordered request that
//     has not handed ownership on, without the holder bit;
//   - an owned line (E, M or O), a pending write-back, or an ordered GetX
//     that has not handed ownership on, without the owner-candidate bit;
//   - an outstanding MSHR that does not name its line's filter slot, or
//     whose read-count snapshot is ahead of the line's count.
//
// Queued requests (issued, not yet ordered) need no bit. It holds after
// every kernel event, not only at quiescent points.
func (s *System) CheckHolders() error {
	h := s.holders
	var err error
	for _, c := range s.Ctrls {
		c.cache.ForEachValid(func(l *cache.Line) {
			switch {
			case err != nil:
			case !h.has(l.Tag, c.id, false):
				err = fmt.Errorf("P%d holds line %s in %s but is not in its holder set", c.id, l.Tag, l.State)
			case l.State.IsOwner() && !h.has(l.Tag, c.id, true):
				err = fmt.Errorf("P%d holds line %s in %s but is not an owner candidate", c.id, l.Tag, l.State)
			}
		})
		if err != nil {
			return err
		}
		for _, m := range c.mshrs {
			if i, ok := h.slot.get(m.line); !ok || i != m.slot {
				return fmt.Errorf("P%d has an MSHR for line %s outside the line's filter slot", c.id, m.line)
			}
			if m.reads > *h.reads(m.slot) {
				return fmt.Errorf("P%d has an MSHR for line %s with read snapshot %d past the line's count %d", c.id, m.line, m.reads, *h.reads(m.slot))
			}
			if !m.ordered || m.handedOff {
				continue
			}
			if !h.has(m.line, c.id, false) {
				return fmt.Errorf("P%d has an ordered %v for line %s but is not in its holder set", c.id, m.kind, m.line)
			}
			if m.kind != bus.GetS && !h.has(m.line, c.id, true) {
				return fmt.Errorf("P%d is the pending owner of line %s but not an owner candidate", c.id, m.line)
			}
		}
		for _, wb := range c.wbPending {
			if !h.has(wb.line, c.id, false) || !h.has(wb.line, c.id, true) {
				return fmt.Errorf("P%d has a pending write-back of line %s but is not in its holder and owner sets", c.id, wb.line)
			}
		}
	}
	return nil
}

// ArchWord returns the architecturally current value of the word at a: the
// owner cache's committed copy if one exists, else memory. Only meaningful
// at quiescent points (no transaction in flight touching the word).
func (s *System) ArchWord(a memsys.Addr) uint64 {
	line := a.Line()
	for _, c := range s.Ctrls {
		if l := c.cache.Probe(line); l != nil && l.State.IsOwner() {
			return l.Data[a.WordIndex()]
		}
		if wb := c.wbPendingFor(line); wb != nil {
			return wb.data[a.WordIndex()]
		}
	}
	return s.Mem.ReadWord(a)
}

// Quiescent reports whether no bus transactions or MSHRs are outstanding.
func (s *System) Quiescent() bool {
	if s.Bus.Outstanding() != 0 || s.Bus.Queued() != 0 {
		return false
	}
	for _, c := range s.Ctrls {
		if len(c.mshrs) != 0 || len(c.draining) != 0 || c.storeBufferedLen() != 0 {
			return false
		}
	}
	return true
}
