// Package locks implements the lock algorithms the paper evaluates:
// test&test&set on LL/SC (the BASE / SLE / TLR executable, §5) and MCS
// software queue locks (the scalable-lock comparison point [26]).
//
// The algorithms are written against the Ops interface so they execute as
// ordinary simulated memory operations: every spin, swap, and store shows up
// in the memory system exactly like the paper's benchmark binaries.
package locks

import "tlrsim/internal/memsys"

// Ops is the subset of the thread context the lock algorithms need. The
// simulator's thread context implements it; tests can substitute a
// sequential fake.
type Ops interface {
	Load(a memsys.Addr) uint64
	Store(a memsys.Addr, v uint64)
	LL(a memsys.Addr) uint64
	SC(a memsys.Addr, v uint64) bool
	Swap(a memsys.Addr, v uint64) uint64
	CAS(a memsys.Addr, old, new uint64) uint64
	SpinUntil(a memsys.Addr, pred func(uint64) bool) uint64
	CPUID() int
}

// AcquireTTS acquires a test&test&set lock: spin on a cached read until the
// lock looks free, then attempt the LL/SC pair. The spin generates no bus
// traffic while the line stays valid; the release invalidation wakes every
// spinner, producing the contention burst the paper attributes to BASE
// (§6.2).
func AcquireTTS(o Ops, lock memsys.Addr) {
	for {
		if o.Load(lock) != 0 {
			o.SpinUntil(lock, func(v uint64) bool { return v == 0 })
		}
		if o.LL(lock) != 0 {
			continue
		}
		if o.SC(lock, 1) {
			return
		}
	}
}

// ReleaseTTS releases a test&test&set lock.
func ReleaseTTS(o Ops, lock memsys.Addr) { o.Store(lock, 0) }

// MCS is one MCS queue lock instance: a tail pointer plus one queue node per
// processor. Node references are encoded as CPU id + 1 (0 = nil). Every
// word lives in its own cache line so spinning is purely local — the
// property that makes MCS scale under contention.
type MCS struct {
	Tail  memsys.Addr
	nodes []QNode
}

// QNode is one processor's queue node.
type QNode struct {
	Next   memsys.Addr
	Locked memsys.Addr
}

// NewMCS allocates an MCS lock for ncpus processors.
func NewMCS(al *memsys.Allocator, ncpus int) *MCS {
	m := &MCS{Tail: al.PaddedWord(), nodes: make([]QNode, ncpus)}
	for i := range m.nodes {
		m.nodes[i] = QNode{Next: al.PaddedWord(), Locked: al.PaddedWord()}
	}
	return m
}

// Words returns every simulated address the lock uses: the tail, then each
// processor's Next and Locked words.
func (m *MCS) Words() []memsys.Addr {
	out := []memsys.Addr{m.Tail}
	for _, n := range m.nodes {
		out = append(out, n.Next, n.Locked)
	}
	return out
}

// Node returns processor cpu's queue node.
func (m *MCS) Node(cpu int) QNode { return m.nodes[cpu] }

// Acquire enqueues the caller and spins locally until its predecessor hands
// over the lock.
func (m *MCS) Acquire(o Ops) {
	me := uint64(o.CPUID()) + 1
	n := m.nodes[o.CPUID()]
	o.Store(n.Next, 0)
	o.Store(n.Locked, 1)
	pred := o.Swap(m.Tail, me)
	if pred == 0 {
		return // lock was free
	}
	o.Store(m.nodes[pred-1].Next, me)
	o.SpinUntil(n.Locked, func(v uint64) bool { return v == 0 })
}

// Release hands the lock to the successor, or clears the tail if none.
func (m *MCS) Release(o Ops) {
	me := uint64(o.CPUID()) + 1
	n := m.nodes[o.CPUID()]
	if o.Load(n.Next) == 0 {
		if o.CAS(m.Tail, me, 0) == me {
			return // no successor
		}
		// A successor is mid-enqueue: wait for it to link itself.
		o.SpinUntil(n.Next, func(v uint64) bool { return v != 0 })
	}
	next := o.Load(n.Next)
	o.Store(m.nodes[next-1].Locked, 0)
}
