// Package cache implements the L1 data cache structures of the target
// system (Table 2): a set-associative array with MOESI line states and LRU
// replacement, per-line speculative access bits (the 1-bit-per-block
// transaction tracking of Figure 5, split into read and written bits so
// read-read sharing is not a conflict), a small fully-associative victim
// cache that extends the conflict-miss capacity available to transactions
// (§3.3), and the speculative write buffer that holds transactional updates
// until commit.
//
// The protocol engine lives in package coherence; this package only owns
// storage and replacement.
package cache

import (
	"fmt"
	"slices"

	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
)

// State is a MOESI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the line holds usable data.
func (s State) Valid() bool { return s != Invalid }

// Writable reports whether the line may be written without a bus request.
func (s State) Writable() bool { return s == Modified || s == Exclusive }

// IsOwner reports whether this cache must supply data for the line
// ("retainable block" in Figure 3: an exclusively owned coherence state; O
// also supplies under MOESI).
func (s State) IsOwner() bool { return s == Modified || s == Exclusive || s == Owned }

// Dirty reports whether eviction requires a write-back.
func (s State) Dirty() bool { return s == Modified || s == Owned }

// Line is one cache line frame.
type Line struct {
	Tag   memsys.Addr // line base address; meaningful only when State.Valid()
	State State
	Data  memsys.LineData

	// SpecRead/SpecWritten are the transaction access bits. SpecWritten
	// means the in-flight transaction has a buffered store to the line (the
	// data here stays non-speculative; speculative values live only in the
	// write buffer until commit).
	SpecRead    bool
	SpecWritten bool

	// Masked marks a line whose ownership of record has already moved to a
	// deferred requester: this cache still holds the data (and must supply
	// it when the deferral resolves) but no longer answers owner snoops —
	// the conflict is masked from the coherence protocol (§3).
	Masked bool

	lru uint64
}

// Spec reports whether the line is in the current transaction's data set.
func (l *Line) Spec() bool { return l.SpecRead || l.SpecWritten }

// Evicted describes a line displaced by Insert.
type Evicted struct {
	Tag   memsys.Addr
	State State
	Data  memsys.LineData
}

// Config sizes the cache.
type Config struct {
	SizeBytes     int // total capacity (131072 = 128 KB in Table 2)
	Ways          int // associativity (4)
	VictimEntries int // victim cache entries (16, §4's worked example)
}

// Stats counts array activity.
type Stats struct {
	Hits, Misses     uint64
	Evictions        uint64
	WritebackEvicts  uint64
	VictimHits       uint64
	SpecOverflowEvts uint64 // failed Insert due to speculative footprint
}

// Cache is the L1 data array plus victim cache.
//
// The main array is stored by slot: a set gets the next slot the first time
// a line is inserted into it, and keeps it for the cache's life. Slot s owns
// frames[s] (its Ways frames) and the tag row tags[s*Ways:(s+1)*Ways], one
// word per frame holding the frame's line address with tagValid set, or 0
// when the frame is Invalid. A hit or miss test reads that one contiguous
// row instead of walking the frames. Only this package changes a frame's
// validity: fill, Invalidate and Reset write the tag word in the same step,
// and a frame evictFrame invalidates is refilled by the fill that follows.
// Callers may move a frame between valid states, which leaves its tag word
// unchanged.
type Cache struct {
	cfg     Config
	ways    int
	setMask uint64   // numSets-1: the set count is a power of two
	rows    []int32  // per set: its slot + 1, or 0 before its first insert
	tags    []uint64 // tag rows, slot by slot
	frames  [][]Line // per slot: the set's frames
	victim  []Line
	tick    uint64
	stats   Stats

	// specTouched records the line addresses whose frames had an access bit
	// set this transaction, so ClearSpecBits clears exactly those frames
	// instead of scanning the whole array (a per-commit/per-abort cost).
	// Frames are tracked by address, not pointer: victim moves and
	// compaction relocate frames, but Probe always finds the live copy.
	specTouched []memsys.Addr

	// faults, when non-nil, applies transient victim-cache capacity
	// pressure: individual spills are refused as if the victim were full,
	// which is indistinguishable from a mid-run shrink of the victim array
	// and escalates through the §3.3 resource-overflow fallback.
	faults *fault.Injector
}

// SetFaults attaches (or with nil detaches) the fault injector.
func (c *Cache) SetFaults(in *fault.Injector) { c.faults = in }

// New builds a cache. SizeBytes/Ways/LineBytes must give a power-of-two set
// count.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: bad geometry")
	}
	numSets := cfg.SizeBytes / (cfg.Ways * memsys.LineBytes)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	c := &Cache{cfg: cfg, ways: cfg.Ways, setMask: uint64(numSets - 1)}
	c.rows = make([]int32, numSets)
	c.victim = make([]Line, 0, cfg.VictimEntries)
	return c
}

// tagValid marks a valid frame's tag word. Line addresses are
// LineBytes-aligned, so the low bit is free, and an Invalid frame's word is
// 0, which no valid line's word equals.
const tagValid = 1

// tagWord is the tag row entry of a frame holding line in state st.
func tagWord(line memsys.Addr, st State) uint64 {
	if !st.Valid() {
		return 0
	}
	return uint64(line) | tagValid
}

// slotFor returns the slot of line's set, giving the set a slot on first
// touch. Lazy allocation keeps machine construction proportional to the
// working set, not the configured capacity: a set without a slot reads as
// all-Invalid (find skips it), so only Insert needs real storage.
func (c *Cache) slotFor(line memsys.Addr) int {
	i := c.setIndex(line)
	if c.rows[i] == 0 {
		n := len(c.tags)
		c.tags = slices.Grow(c.tags, c.ways)[:n+c.ways]
		clear(c.tags[n:])
		c.frames = append(c.frames, make([]Line, c.ways))
		c.rows[i] = int32(len(c.frames))
	}
	return int(c.rows[i] - 1)
}

// row returns slot s's tag row.
func (c *Cache) row(s int) []uint64 { return c.tags[s*c.ways : (s+1)*c.ways] }

// Stats returns the array counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Reset invalidates every frame and rewinds LRU state and stats to
// construction state. Slots given to sets are kept and zeroed rather than
// dropped: a zeroed frame is Invalid and a zeroed tag row misses, which
// reads identically to the slotless set of a fresh cache, and keeping the
// arrays is what makes reuse allocation-free.
func (c *Cache) Reset() {
	for _, set := range c.frames {
		clear(set)
	}
	clear(c.tags)
	c.victim = c.victim[:0]
	c.tick = 0
	c.stats = Stats{}
	c.specTouched = c.specTouched[:0]
}

func (c *Cache) setIndex(line memsys.Addr) uint64 {
	return uint64(line) / memsys.LineBytes & c.setMask
}

// find returns the frame holding line (a line base address), searching the
// set's tag row then the victim cache, or nil. tag points at the frame's
// tag word, and is nil for a victim frame.
func (c *Cache) find(line memsys.Addr) (f *Line, tag *uint64) {
	if r := c.rows[c.setIndex(line)]; r != 0 {
		s := int(r - 1)
		want := uint64(line) | tagValid
		row := c.row(s)
		for w := range row {
			if row[w] == want {
				return &c.frames[s][w], &row[w]
			}
		}
	}
	for i := range c.victim {
		if c.victim[i].State.Valid() && c.victim[i].Tag == line {
			return &c.victim[i], nil
		}
	}
	return nil, nil
}

// Lookup returns the frame holding line, searching the main array then the
// victim cache, or nil. It does not touch LRU state; use Touch on access.
func (c *Cache) Lookup(line memsys.Addr) *Line {
	f, tag := c.find(line.Line())
	if f != nil && tag == nil {
		c.stats.VictimHits++
	}
	return f
}

// Probe is Lookup without statistics side effects (for snooping and
// assertions).
func (c *Cache) Probe(line memsys.Addr) *Line {
	f, _ := c.find(line.Line())
	return f
}

// Touch marks the line most-recently-used and counts a hit.
func (c *Cache) Touch(l *Line) {
	c.tick++
	l.lru = c.tick
	c.stats.Hits++
}

// Miss counts a miss (the fill arrives later via Insert).
func (c *Cache) Miss() { c.stats.Misses++ }

// Insert fills line with the given state and data. It returns the evicted
// line (if a valid, non-speculative frame was displaced) and ok=false when
// the insert is impossible without evicting speculatively-accessed data and
// the victim cache is full — the resource-constraint case that forces TLR to
// fall back to acquiring the lock (§3.3).
func (c *Cache) Insert(line memsys.Addr, st State, data memsys.LineData) (frame *Line, ev *Evicted, ok bool) {
	line = line.Line()
	if got, tag := c.find(line); got != nil {
		// Re-fill of a present line (e.g. upgrade completed): update in place.
		got.State = st
		got.Data = data
		c.tick++
		got.lru = c.tick
		if tag != nil {
			*tag = tagWord(line, st)
		}
		return got, nil, true
	}
	s := c.slotFor(line)
	set, row := c.frames[s], c.row(s)

	// 1) Free frame.
	for w := range row {
		if row[w] == 0 {
			return c.fill(&set[w], &row[w], line, st, data), nil, true
		}
	}
	// 2) LRU among non-speculative frames.
	if w := pickLRU(set, false); w >= 0 {
		ev = c.evictFrame(&set[w])
		return c.fill(&set[w], &row[w], line, st, data), ev, true
	}
	// 3) Whole set is speculative: move the LRU speculative frame to the
	// victim cache, which preserves its access bits and ownership.
	if len(c.victim) < c.cfg.VictimEntries && !c.faults.RefuseVictim() {
		w := pickLRU(set, true)
		c.victim = append(c.victim, set[w])
		return c.fill(&set[w], &row[w], line, st, data), nil, true
	}
	// 4) Victim cache full of speculative lines too: resource overflow.
	c.stats.SpecOverflowEvts++
	return nil, nil, false
}

// fill installs line in frame f, whose tag word is tag, resetting the
// frame's access and mask bits.
func (c *Cache) fill(f *Line, tag *uint64, line memsys.Addr, st State, data memsys.LineData) *Line {
	c.tick++
	f.Tag, f.State, f.Data = line, st, data
	f.SpecRead, f.SpecWritten, f.Masked = false, false, false
	f.lru = c.tick
	*tag = tagWord(line, st)
	return f
}

// pickLRU returns the least-recently-used way; when includeSpec is false it
// considers only non-speculative frames and returns -1 if none qualify.
func pickLRU(set []Line, includeSpec bool) int {
	best, bestLRU := -1, ^uint64(0)
	for i := range set {
		if !includeSpec && set[i].Spec() {
			continue
		}
		if set[i].lru <= bestLRU {
			best, bestLRU = i, set[i].lru
		}
	}
	return best
}

func (c *Cache) evictFrame(f *Line) *Evicted {
	c.stats.Evictions++
	if f.State.Dirty() {
		c.stats.WritebackEvicts++
	}
	// The frame's tag word is left to the fill that always follows.
	ev := &Evicted{Tag: f.Tag, State: f.State, Data: f.Data}
	f.State = Invalid
	return ev
}

// Invalidate drops the line (external GetX/Upgrade). The frame (main or
// victim) becomes free. Victim frames are compacted out.
func (c *Cache) Invalidate(line memsys.Addr) {
	l, tag := c.find(line.Line())
	if l == nil {
		return
	}
	l.State = Invalid
	if tag != nil {
		*tag = 0
		return
	}
	c.compactVictim()
}

func (c *Cache) compactVictim() {
	out := c.victim[:0]
	for _, v := range c.victim {
		if v.State.Valid() {
			out = append(out, v)
		}
	}
	c.victim = out
}

// MarkSpecRead sets the line's transactional-read bit, registering the
// address for ClearSpecBits. All spec-bit writers must go through MarkSpec*
// so the touched-line list stays complete.
func (c *Cache) MarkSpecRead(l *Line) {
	if !l.SpecRead && !l.SpecWritten {
		c.specTouched = append(c.specTouched, l.Tag)
	}
	l.SpecRead = true
}

// MarkSpecWritten sets the line's transactional-write bit, registering the
// address for ClearSpecBits.
func (c *Cache) MarkSpecWritten(l *Line) {
	if !l.SpecRead && !l.SpecWritten {
		c.specTouched = append(c.specTouched, l.Tag)
	}
	l.SpecWritten = true
}

// ClearSpecBits ends a transaction: all access bits drop (the end_defer
// message's effect in Figure 5), and victim frames that only existed to hold
// speculative lines become ordinary victims. Only the lines touched this
// transaction are visited. Invalidated frames may keep stale bits, which is
// harmless: every reader of the bits reaches frames through Probe (valid
// frames only), free-frame selection in Insert precedes the spec-aware LRU
// pick, and fill() resets the bits on reuse.
func (c *Cache) ClearSpecBits() {
	for _, line := range c.specTouched {
		if l := c.Probe(line); l != nil {
			l.SpecRead = false
			l.SpecWritten = false
		}
	}
	c.specTouched = c.specTouched[:0]
}

// SpecLines returns the line addresses currently in the transaction's data
// set, sorted for deterministic iteration.
func (c *Cache) SpecLines() []memsys.Addr {
	var out []memsys.Addr
	for _, set := range c.frames {
		for i := range set {
			if set[i].State.Valid() && set[i].Spec() {
				out = append(out, set[i].Tag)
			}
		}
	}
	for i := range c.victim {
		if c.victim[i].State.Valid() && c.victim[i].Spec() {
			out = append(out, c.victim[i].Tag)
		}
	}
	slices.Sort(out)
	return out
}

// ForEachValid visits every valid frame (checker support), main array in
// set order, then the victim cache.
func (c *Cache) ForEachValid(fn func(*Line)) {
	for _, r := range c.rows {
		if r == 0 {
			continue
		}
		set := c.frames[r-1]
		for i := range set {
			if set[i].State.Valid() {
				fn(&set[i])
			}
		}
	}
	for i := range c.victim {
		if c.victim[i].State.Valid() {
			fn(&c.victim[i])
		}
	}
}

// VictimLen reports current victim-cache occupancy.
func (c *Cache) VictimLen() int { return len(c.victim) }
