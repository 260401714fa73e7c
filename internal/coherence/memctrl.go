package coherence

import (
	"tlrsim/internal/bus"
	"tlrsim/internal/memsys"
)

// MemController models the shared L2 plus memory behind it (Table 2: 4 MB L2
// at 12 cycles, memory at 70 cycles). The L2 is modelled as inclusive of
// everything ever fetched: the first touch of a line pays the memory
// latency, later supplier-of-last-resort fills pay the L2 latency. Capacity
// misses in a 4 MB L2 are irrelevant at our workload footprints.
type MemController struct {
	sys  *System
	inL2 memsys.LineSet
}

func newMemController(s *System) *MemController { return &MemController{sys: s} }

// SnoopOwner: memory is the implicit default owner; it never claims.
func (m *MemController) SnoopOwner(memsys.Addr) bool { return false }

// SnoopShared: memory copies don't count as sharers.
func (m *MemController) SnoopShared(memsys.Addr) bool { return false }

// SnoopNack: memory never refuses a request.
func (m *MemController) SnoopNack(*bus.Txn) bool { return false }

// Snoop supplies data when no cache owns the line, and absorbs write-backs.
func (m *MemController) Snoop(t *bus.Txn, owner int, _ bool) {
	switch t.Kind {
	case bus.WriteBack:
		if !t.Cancel {
			m.sys.Mem.WriteLine(t.Line, t.WBData)
		}
		m.inL2.Add(t.Line)
		// The write-back's requester never hears of it again: memory
		// completes it for the requester, last in the snoop dispatch.
		m.sys.Bus.Complete(t)
	case bus.GetS, bus.GetX:
		if owner != bus.MemID || t.Nacked {
			return
		}
		lat := m.sys.cfg.MemLat
		if m.inL2.Has(t.Line) {
			lat = m.sys.cfg.L2Lat
		}
		m.inL2.Add(t.Line)
		// t's identifying fields are immutable once ordered, so the response
		// event can carry the transaction itself instead of a closure.
		m.sys.K.AfterCall(lat, memRespEvent, m, t, 0)
	case bus.Upgrade:
		// The requester already has data; nothing for memory to do.
	}
}

// memRespEvent supplies the memory/L2 fill for transaction arg (*bus.Txn).
func memRespEvent(recv, arg any, _ uint64) {
	mc := recv.(*MemController)
	t := arg.(*bus.Txn)
	data := mc.sys.Mem.ReadLine(t.Line)
	mc.sys.Bus.SendData(t.Src, t.ID, t.Line, &data, bus.MemID)
}

// Deliver: memory receives no data-network messages in this protocol.
func (m *MemController) Deliver(msg bus.Msg) {}
