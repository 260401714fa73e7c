package coherence

import (
	"slices"

	"tlrsim/internal/memsys"
)

// holderSet is the snoop filter behind bus.Holders: per line, a bitmask of
// controllers that is always a superset of those holding state for the
// line — a valid cache copy, an MSHR, or a pending write-back. A bit is
// set wherever a controller gains such state and cleared (release) only
// once the controller is found to hold none of the three. A controller
// outside the mask answers false to both snoop questions and its Snoop is
// a no-op, so the bus skipping it changes nothing.
//
// Each line owns words consecutive words of one slab, found through the
// line index. A line keeps its slot once assigned (clearing bits never
// frees it), so steady-state traffic allocates nothing, and reset keeps
// both the index's and the slab's arrays for the next run.
type holderSet struct {
	words int // ⌈procs/64⌉
	slot  lineIndex
	bits  []uint64
}

func newHolderSet(procs int) *holderSet {
	return &holderSet{words: (procs + 63) / 64}
}

// Holders implements bus.Holders.
func (h *holderSet) Holders(line memsys.Addr) []uint64 {
	i, ok := h.slot.get(line)
	if !ok {
		return nil
	}
	return h.bits[i : i+h.words]
}

// add sets controller id's bit for line.
func (h *holderSet) add(line memsys.Addr, id int) {
	i, ok := h.slot.get(line)
	if !ok {
		i = len(h.bits)
		h.slot.put(line, i)
		h.bits = slices.Grow(h.bits, h.words)[:i+h.words]
		clear(h.bits[i:])
	}
	h.bits[i+id/64] |= 1 << (id % 64)
}

// remove clears controller id's bit for line.
func (h *holderSet) remove(line memsys.Addr, id int) {
	if i, ok := h.slot.get(line); ok {
		h.bits[i+id/64] &^= 1 << (id % 64)
	}
}

// has reports whether controller id's bit for line is set.
func (h *holderSet) has(line memsys.Addr, id int) bool {
	i, ok := h.slot.get(line)
	return ok && h.bits[i+id/64]&(1<<(id%64)) != 0
}

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

// hold records that the controller gained state for line.
func (c *Controller) hold(line memsys.Addr) { c.sys.holders.add(line, c.id) }

// release clears the controller's holder bit for line if it no longer
// holds a cache copy, an MSHR or a pending write-back for it.
func (c *Controller) release(line memsys.Addr) {
	if c.mshrFor(line) != nil || c.wbPendingFor(line) != nil || c.cache.Probe(line) != nil {
		return
	}
	c.sys.holders.remove(line, c.id)
}
