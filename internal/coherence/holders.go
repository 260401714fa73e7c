package coherence

import (
	"slices"

	"tlrsim/internal/bus"
	"tlrsim/internal/memsys"
)

// holderSet is the snoop filter behind bus.Holders. Each line has a slot of
// three parts, written only by the controllers whose bits they hold:
//
//   - holders: a superset of the controllers that can act on a GetX or an
//     Upgrade of the line: a valid cache copy, a pending write-back, or an
//     ordered request that has not handed ownership on. A queued request
//     (issued, not yet ordered) is not one: it takes its bit at its own
//     order point, which the bus always dispatches to it.
//   - owners: a superset of the owner candidates, the controllers that can
//     answer SnoopOwner or act on a GetS: an owned copy (E, M or O,
//     masked or not), a pending write-back, or an ordered GetX that has not
//     handed ownership on.
//   - reads: the number of GetS transactions for the line ordered without
//     a NACK so far. A GetS MSHR snapshots the count when it enters the
//     outstanding misses and installs Shared if the count moved by more
//     than its own GetS (readSeen): another reader's GetS was ordered while
//     it was outstanding. So a pending reader needs no snoop to learn it.
//
// A bit is set wherever its state appears and cleared (release) once the
// controller is found to hold none of it. A controller outside holders
// acts on no GetX or Upgrade; one outside owners answers false to
// SnoopOwner and acts on no GetS. A handed-off
// pending owner still answers SnoopShared, but outside both sets: the
// request it handed off to is ordered, not handed off (else follow the
// chain to its tail), and answers too, so the sharer poll over holders
// finds someone either way.
//
// A line keeps its slot once assigned (clearing bits never frees it), so
// steady-state traffic allocates nothing, an MSHR can keep its line's slot
// instead of looking it up, and reset keeps both the index's and the
// slab's arrays for the next run.
type holderSet struct {
	words int // ⌈procs/64⌉: holders at slot, owners at slot+words, reads at slot+2*words
	slot  lineIndex
	bits  []uint64
}

func newHolderSet(procs int) *holderSet {
	return &holderSet{words: (procs + 63) / 64}
}

// Holders implements bus.Holders.
func (h *holderSet) Holders(line memsys.Addr) (holders, owners []uint64) {
	i, ok := h.slot.get(line)
	if !ok {
		return nil, nil
	}
	return h.bits[i : i+h.words], h.bits[i+h.words : i+2*h.words]
}

// at returns line's slot, assigning one on first use.
func (h *holderSet) at(line memsys.Addr) int {
	i, ok := h.slot.get(line)
	if !ok {
		n := 2*h.words + 1
		i = len(h.bits)
		h.slot.put(line, i)
		h.bits = slices.Grow(h.bits, n)[:i+n]
		clear(h.bits[i:])
	}
	return i
}

// add sets controller id's holder bit in slot i, and its owner-candidate
// bit too when owner is set.
func (h *holderSet) add(i, id int, owner bool) {
	w, bit := id/64, uint64(1)<<(id%64)
	h.bits[i+w] |= bit
	if owner {
		h.bits[i+h.words+w] |= bit
	}
}

// drop clears controller id's holder bit for line when holder is false and
// its owner-candidate bit when owner is false.
func (h *holderSet) drop(line memsys.Addr, id int, holder, owner bool) {
	i, ok := h.slot.get(line)
	if !ok {
		return
	}
	w, bit := id/64, uint64(1)<<(id%64)
	if !holder {
		h.bits[i+w] &^= bit
	}
	if !owner {
		h.bits[i+h.words+w] &^= bit
	}
}

// has reports whether controller id's holder bit (owner-candidate bit when
// owner is set) for line is set.
func (h *holderSet) has(line memsys.Addr, id int, owner bool) bool {
	i, ok := h.slot.get(line)
	if owner {
		i += h.words
	}
	return ok && h.bits[i+id/64]&(1<<(id%64)) != 0
}

// reads returns slot i's ordered-GetS count.
func (h *holderSet) reads(i int) *uint64 { return &h.bits[i+2*h.words] }

func (h *holderSet) reset() {
	h.slot.reset()
	h.bits = h.bits[:0]
}

// lineIndex maps a line to an int (its holder-set slot): an open-addressed
// table with linear probing, at most half full. Lines are only ever added
// during a run, so there are no deletions and no tombstones; reset empties
// the table and keeps its array.
type lineIndex struct {
	slots []indexSlot
	n     int  // lines present
	shift uint // 64 - log2(len(slots))
}

// indexSlot is one table entry; at is the value plus one, so 0 is empty.
type indexSlot struct {
	line memsys.Addr
	at   int
}

const lineIndexMinLog2 = 6

func (x *lineIndex) home(line memsys.Addr) int {
	return int(uint64(line) * 0x9e3779b97f4a7c15 >> x.shift)
}

// get returns the value stored for line.
func (x *lineIndex) get(line memsys.Addr) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := x.home(line); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.at == 0 {
			return 0, false
		}
		if s.line == line {
			return s.at - 1, true
		}
	}
}

// put stores v for line, which must not be present.
func (x *lineIndex) put(line memsys.Addr, v int) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	i := x.home(line)
	for x.slots[i].at != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = indexSlot{line, v + 1}
	x.n++
}

// grow doubles the table (or makes the first one) and re-inserts every
// line.
func (x *lineIndex) grow() {
	old := x.slots
	if old == nil {
		x.slots = make([]indexSlot, 1<<lineIndexMinLog2)
		x.shift = 64 - lineIndexMinLog2
		return
	}
	x.slots = make([]indexSlot, 2*len(old))
	x.shift--
	x.n = 0
	for _, s := range old {
		if s.at != 0 {
			x.put(s.line, s.at-1)
		}
	}
}

func (x *lineIndex) reset() {
	clear(x.slots)
	x.n = 0
}

// release clears the controller's holder and owner-candidate bits for line
// as far as its remaining state allows.
func (c *Controller) release(line memsys.Addr) {
	l := c.cache.Probe(line)
	wb := c.wbPendingFor(line) != nil
	m := c.mshrFor(line)
	pending := m != nil && m.ordered && !m.handedOff
	holder := l != nil || wb || pending
	owner := wb || l != nil && l.State.IsOwner() || pending && m.kind != bus.GetS
	if !holder || !owner {
		c.sys.holders.drop(line, c.id, holder, owner)
	}
}

// readSeen reports whether a GetS other than m's own has been ordered for
// m's line since m's snapshot, and takes a new snapshot. own says whether
// m's own GetS has been counted since: it has at m's order point.
func (c *Controller) readSeen(m *mshr, own bool) bool {
	n := *c.sys.holders.reads(m.slot)
	seen := n != m.reads
	if own {
		seen = n != m.reads+1
	}
	m.reads = n
	return seen
}
