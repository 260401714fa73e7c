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
// Each line owns words consecutive words of one slab, found through slot.
// A line keeps its slot once assigned (clearing bits never frees it), so
// steady-state traffic allocates nothing, and reset keeps both the map and
// the slab's capacity for the next run.
type holderSet struct {
	words int // ⌈procs/64⌉
	slot  map[memsys.Addr]int
	bits  []uint64
}

func newHolderSet(procs int) *holderSet {
	return &holderSet{words: (procs + 63) / 64, slot: make(map[memsys.Addr]int)}
}

// Holders implements bus.Holders.
func (h *holderSet) Holders(line memsys.Addr) []uint64 {
	i, ok := h.slot[line]
	if !ok {
		return nil
	}
	return h.bits[i : i+h.words]
}

// add sets controller id's bit for line.
func (h *holderSet) add(line memsys.Addr, id int) {
	i, ok := h.slot[line]
	if !ok {
		i = len(h.bits)
		h.slot[line] = i
		h.bits = slices.Grow(h.bits, h.words)[:i+h.words]
		clear(h.bits[i:])
	}
	h.bits[i+id/64] |= 1 << (id % 64)
}

// remove clears controller id's bit for line.
func (h *holderSet) remove(line memsys.Addr, id int) {
	if i, ok := h.slot[line]; ok {
		h.bits[i+id/64] &^= 1 << (id % 64)
	}
}

// has reports whether controller id's bit for line is set.
func (h *holderSet) has(line memsys.Addr, id int) bool {
	i, ok := h.slot[line]
	return ok && h.bits[i+id/64]&(1<<(id%64)) != 0
}

func (h *holderSet) reset() {
	clear(h.slot)
	h.bits = h.bits[:0]
}

// hold records that the controller gained state for line.
func (c *Controller) hold(line memsys.Addr) { c.sys.holders.add(line, c.id) }

// release clears the controller's holder bit for line if it no longer
// holds a cache copy, an MSHR or a pending write-back for it.
func (c *Controller) release(line memsys.Addr) {
	if _, ok := c.mshrs[line]; ok {
		return
	}
	if _, ok := c.wbPending[line]; ok {
		return
	}
	if c.cache.Probe(line) != nil {
		return
	}
	c.sys.holders.remove(line, c.id)
}
