// Package memsys defines the simulated physical address space: 64-bit byte
// addresses, 64-byte cache lines of eight 64-bit words (the paper's Table 2
// line size), and the flat backing memory image that caches fill from and
// write back to.
package memsys

import "fmt"

// Addr is a simulated physical byte address. Workload data is word-aligned;
// all memory operations in the model are on 8-byte words.
type Addr uint64

const (
	// LineBytes is the coherence granularity (Table 2: 64-byte lines).
	LineBytes = 64
	// WordBytes is the access granularity of simulated loads and stores.
	WordBytes = 8
	// WordsPerLine is the number of words in one coherence unit.
	WordsPerLine = LineBytes / WordBytes
)

// Line returns the line-aligned base address containing a.
func (a Addr) Line() Addr { return a &^ (LineBytes - 1) }

// WordIndex returns the word offset of a within its line.
func (a Addr) WordIndex() int { return int(a%LineBytes) / WordBytes }

// Aligned reports whether a is word-aligned. All model accesses must be.
func (a Addr) Aligned() bool { return a%WordBytes == 0 }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// LineData is the payload of one cache line.
type LineData [WordsPerLine]uint64

// Memory is the flat backing store. It is the architectural home of every
// line that no cache owns. Lines not yet touched read as zero.
type Memory struct {
	lines map[Addr]*LineData

	// OnSetupWrite, when set, observes WriteWord calls (workload Setup runs
	// outside simulated time; the functional checker preloads its shadow
	// through this hook). Timing-path write-backs use WriteLine and are not
	// observed.
	OnSetupWrite func(a Addr, v uint64)
}

// NewMemory returns an empty (all-zero) memory image.
func NewMemory() *Memory { return &Memory{lines: make(map[Addr]*LineData)} }

// ReadLine returns a copy of the line containing a.
func (m *Memory) ReadLine(a Addr) LineData {
	if l, ok := m.lines[a.Line()]; ok {
		return *l
	}
	return LineData{}
}

// WriteLine replaces the line containing a (a write-back from a cache).
func (m *Memory) WriteLine(a Addr, d LineData) {
	base := a.Line()
	l, ok := m.lines[base]
	if !ok {
		l = new(LineData)
		m.lines[base] = l
	}
	*l = d
}

// ReadWord returns the word at a. It panics on unaligned addresses: those
// are always workload bugs, not simulated faults.
func (m *Memory) ReadWord(a Addr) uint64 {
	mustAligned(a)
	if l, ok := m.lines[a.Line()]; ok {
		return l[a.WordIndex()]
	}
	return 0
}

// WriteWord stores v at a, bypassing timing. It is used by workload Setup
// to initialise data structures before simulated time starts, and by the
// functional checker.
func (m *Memory) WriteWord(a Addr, v uint64) {
	mustAligned(a)
	base := a.Line()
	l, ok := m.lines[base]
	if !ok {
		l = new(LineData)
		m.lines[base] = l
	}
	l[a.WordIndex()] = v
	if m.OnSetupWrite != nil {
		m.OnSetupWrite(a, v)
	}
}

// Lines returns the number of distinct lines ever written (including lines
// zeroed again by Reset — the line entries themselves are kept).
func (m *Memory) Lines() int { return len(m.lines) }

// Reset zeroes the memory image in place. Line entries are kept and zeroed
// rather than dropped: a zero line is indistinguishable from an untouched
// one to every reader, and keeping the *LineData allocations is what makes
// machine reuse allocation-free.
func (m *Memory) Reset() {
	for _, l := range m.lines {
		*l = LineData{}
	}
}

func mustAligned(a Addr) {
	if !a.Aligned() {
		panic(fmt.Sprintf("memsys: unaligned access at %s", a))
	}
}

// Allocator hands out word-aligned simulated addresses. Workloads use it in
// Setup so that data-structure layout (padding to line boundaries to avoid
// false sharing, as the paper does for its benchmarks, §5.2) is explicit.
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator starting at base (line-aligned).
func NewAllocator(base Addr) *Allocator {
	return &Allocator{next: base.Line() + LineBytes}
}

// Reset rewinds the allocator to the state NewAllocator(base) constructs.
func (al *Allocator) Reset(base Addr) { al.next = base.Line() + LineBytes }

// Word allocates one 8-byte word.
func (al *Allocator) Word() Addr {
	a := al.next
	al.next += WordBytes
	return a
}

// Words allocates n contiguous words and returns the first address.
func (al *Allocator) Words(n int) Addr {
	a := al.next
	al.next += Addr(n * WordBytes)
	return a
}

// AlignLine advances to the next line boundary (no-op if already aligned).
func (al *Allocator) AlignLine() {
	if al.next%LineBytes != 0 {
		al.next = al.next.Line() + LineBytes
	}
}

// PaddedWord allocates a word alone in its own cache line — the layout the
// paper uses to eliminate false sharing between locks and between counters.
func (al *Allocator) PaddedWord() Addr {
	al.AlignLine()
	a := al.next
	al.next += LineBytes
	return a
}

// PaddedWords allocates n words, each alone in its own line.
func (al *Allocator) PaddedWords(n int) []Addr {
	out := make([]Addr, n)
	for i := range out {
		out[i] = al.PaddedWord()
	}
	return out
}

// Next reports the next address that would be allocated (for footprint
// accounting in tests).
func (al *Allocator) Next() Addr { return al.next }
