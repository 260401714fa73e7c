package cache

import "tlrsim/internal/memsys"

// WriteBuffer is the speculative store buffer (Table 2: 64 entries, 64 bytes
// wide). During transactional execution every store lands here instead of in
// the cache; loads forward from it; at commit the whole buffer drains into
// the cache atomically; on misspeculation it is discarded, which is what
// gives critical sections failure-atomicity (§4).
//
// Writes are merged: re-writing a word or a line costs no new entry, so the
// capacity limit is the number of *unique cache lines* written in the
// critical section (§3.3). The buffer is a memsys.WordSet capped at that
// many lines: one entry per line, kept in address order, so the commit walks
// it without sorting and Discard keeps its arrays.
type WriteBuffer struct {
	set      memsys.WordSet
	maxLines int
}

// NewWriteBuffer returns a buffer limited to maxLines distinct lines.
func NewWriteBuffer(maxLines int) *WriteBuffer {
	return &WriteBuffer{maxLines: maxLines}
}

// Write buffers v at word address a. It reports false — without buffering —
// when the store would exceed the line capacity: the resource constraint
// that forces lock acquisition (§2.2 step 3, §3.3).
func (wb *WriteBuffer) Write(a memsys.Addr, v uint64) bool {
	if !wb.set.HasLine(a) && wb.set.Len() >= wb.maxLines {
		return false
	}
	wb.set.Put(a, v)
	return true
}

// Read forwards the newest buffered value for a, if any.
func (wb *WriteBuffer) Read(a memsys.Addr) (uint64, bool) { return wb.set.Get(a) }

// HasLine reports whether any buffered store targets the line.
func (wb *WriteBuffer) HasLine(line memsys.Addr) bool { return wb.set.HasLine(line) }

// Lines returns the distinct buffered lines in ascending address order
// (deterministic commit order). The slice is the buffer's own: it is valid
// only until the buffer next changes.
func (wb *WriteBuffer) Lines() []memsys.Addr { return wb.set.Lines() }

// Drain applies every buffered word of line into data (the line's committed
// payload) and removes the line's entry. Commit drains the lines in
// address order while holding write permission.
func (wb *WriteBuffer) Drain(line memsys.Addr, data *memsys.LineData) {
	if i, ok := wb.set.Find(line); ok {
		wb.set.Apply(i, data)
		wb.set.Remove(i)
	}
}

// Words exposes the buffered words directly (functional-checker support:
// the transaction's write set at commit). The caller must treat it as
// read-only and must not retain it past the next Write/Drain/Discard.
func (wb *WriteBuffer) Words() *memsys.WordSet { return &wb.set }

// Discard empties the buffer (misspeculation recovery: the speculative
// updates vanish without ever becoming visible).
func (wb *WriteBuffer) Discard() { wb.set.Clear() }

// LineCount reports distinct buffered lines.
func (wb *WriteBuffer) LineCount() int { return wb.set.Len() }

// Empty reports whether nothing is buffered.
func (wb *WriteBuffer) Empty() bool { return wb.set.Len() == 0 }
