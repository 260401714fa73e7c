package memsys

// WordSet is a set of word values grouped by cache line: one entry per line
// (the line address, a mask of the words present, and the line's eight
// words), kept sorted by line and found by binary search. It is how the
// model keeps one transaction's footprint: the speculative write buffer
// and the read set the functional checker validates at commit. Both are
// bounded by that footprint (the write buffer by its line capacity), so a
// short sorted slice beats a hash map: a lookup touches a few cache lines,
// iteration is already in address order, and emptying the set keeps its
// arrays.
//
// The zero value is an empty set.
type WordSet struct {
	lines []Addr // ascending; lines[i] is the line of ents[i]
	ents  []lineWords
}

type lineWords struct {
	mask  uint8 // bit w: word w is present
	words LineData
}

// find returns the index of line in s, or where it would be inserted.
func (s *WordSet) find(line Addr) (int, bool) {
	lo, hi := 0, len(s.lines)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.lines[mid] < line {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.lines) && s.lines[lo] == line
}

// insert adds an empty entry for line at index i (from find).
func (s *WordSet) insert(i int, line Addr) {
	s.lines = append(s.lines, 0)
	copy(s.lines[i+1:], s.lines[i:])
	s.lines[i] = line
	s.ents = append(s.ents, lineWords{})
	copy(s.ents[i+1:], s.ents[i:])
	s.ents[i] = lineWords{}
}

// put stores v at a. With keep set, a word already present keeps its value
// (first value wins); otherwise v replaces it (last value wins).
func (s *WordSet) put(a Addr, v uint64, keep bool) {
	line := a.Line()
	i, ok := s.find(line)
	if !ok {
		s.insert(i, line)
	}
	e := &s.ents[i]
	bit := uint8(1) << a.WordIndex()
	if keep && e.mask&bit != 0 {
		return
	}
	e.mask |= bit
	e.words[a.WordIndex()] = v
}

// Put stores v at a, replacing any value already there.
func (s *WordSet) Put(a Addr, v uint64) { s.put(a, v, false) }

// Record stores v at a unless a already holds a value: the first value
// recorded for a word is the one kept.
func (s *WordSet) Record(a Addr, v uint64) { s.put(a, v, true) }

// Get returns the value at a, if present.
func (s *WordSet) Get(a Addr) (uint64, bool) {
	i, ok := s.find(a.Line())
	if !ok || s.ents[i].mask&(1<<a.WordIndex()) == 0 {
		return 0, false
	}
	return s.ents[i].words[a.WordIndex()], true
}

// HasLine reports whether any word of the line containing a is present.
func (s *WordSet) HasLine(a Addr) bool {
	_, ok := s.find(a.Line())
	return ok
}

// Len reports the number of distinct lines present.
func (s *WordSet) Len() int { return len(s.lines) }

// Lines returns the lines present in ascending address order. The slice is
// the set's own: it is valid only until the set next changes.
func (s *WordSet) Lines() []Addr { return s.lines }

// Entry returns the i-th line in address order, the mask of its words
// present (bit w for word w), and its words.
func (s *WordSet) Entry(i int) (Addr, uint8, *LineData) {
	return s.lines[i], s.ents[i].mask, &s.ents[i].words
}

// Apply copies the present words of the i-th line into data.
func (s *WordSet) Apply(i int, data *LineData) {
	e := &s.ents[i]
	for w := range data {
		if e.mask&(1<<w) != 0 {
			data[w] = e.words[w]
		}
	}
}

// Remove deletes the i-th line and its words.
func (s *WordSet) Remove(i int) {
	s.lines = append(s.lines[:i], s.lines[i+1:]...)
	s.ents = append(s.ents[:i], s.ents[i+1:]...)
}

// Find returns the index of the line containing a, if present.
func (s *WordSet) Find(a Addr) (int, bool) { return s.find(a.Line()) }

// Clear empties the set, keeping its arrays.
func (s *WordSet) Clear() {
	s.lines = s.lines[:0]
	s.ents = s.ents[:0]
}
