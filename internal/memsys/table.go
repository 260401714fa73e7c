package memsys

// pages is a paged table over the line address space: a directory indexed
// by page number, each page allocated on its first write. A read of an
// absent page allocates nothing. The directory costs one pointer per page
// up to the highest page written, so the tables suit the dense address
// ranges the Allocator hands out, not arbitrary 64-bit addresses.
type pages[P any] struct {
	dir []*P
}

// get returns page i, or nil if it was never written.
func (d *pages[P]) get(i uint64) *P {
	if i < uint64(len(d.dir)) {
		return d.dir[i]
	}
	return nil
}

// put returns page i, allocating it (and growing the directory) on first use.
func (d *pages[P]) put(i uint64) *P {
	if i >= uint64(len(d.dir)) {
		d.dir = append(d.dir, make([]*P, i+1-uint64(len(d.dir)))...)
	}
	p := d.dir[i]
	if p == nil {
		p = new(P)
		d.dir[i] = p
	}
	return p
}

// reset zeroes every allocated page in place and keeps it, so a table that
// is filled again with the same lines allocates nothing.
func (d *pages[P]) reset() {
	var zero P
	for _, p := range d.dir {
		if p != nil {
			*p = zero
		}
	}
}

const (
	// memPageLines is the lines per Memory page: 64 LineData, 4 KiB.
	memPageLines = 64
	// setPageLines is the lines per LineSet page: 4,096 bits, 512 B.
	setPageLines = 4096
)

// LineSet is a set of lines, one bit per line, in pages of 4,096 lines
// (512 B) allocated on the first Add to them. Its directory costs one
// pointer per page up to the highest line added. The zero value is empty.
type LineSet struct {
	pages pages[[setPageLines / 64]uint64]
}

// Add puts a's line in the set.
func (s *LineSet) Add(a Addr) {
	n := uint64(a) / LineBytes
	s.pages.put(n / setPageLines)[n%setPageLines/64] |= 1 << (n % 64)
}

// Has reports whether a's line is in the set.
func (s *LineSet) Has(a Addr) bool {
	n := uint64(a) / LineBytes
	p := s.pages.get(n / setPageLines)
	return p != nil && p[n%setPageLines/64]&(1<<(n%64)) != 0
}

// Reset empties the set, keeping its pages.
func (s *LineSet) Reset() { s.pages.reset() }
