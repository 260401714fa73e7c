package core

import "tlrsim/internal/memsys"

// ElisionPredictor decides whether a lock site should be elided. SLE starts
// optimistic and backs off per site when speculation keeps failing, which is
// how the paper's BASE+SLE configuration degenerates to BASE under frequent
// data conflicts (§6.2, single-counter): "SLE detects frequent data
// conflicts, turns off speculation, and falls back".
//
// The predictor is a table of saturating confidence counters indexed by lock
// site (standing in for the silent store-pair predictor's PC index; Table 2
// gives it 64 entries).
type ElisionPredictor struct {
	entries  int
	counters map[int]int8
	order    []int // FIFO replacement of table entries

	// Confidence range [0, max]; elide when counter >= threshold.
	max       int8
	threshold int8
}

// NewElisionPredictor returns a predictor with the given table capacity.
func NewElisionPredictor(entries int) *ElisionPredictor {
	if entries <= 0 {
		entries = 64
	}
	return &ElisionPredictor{
		entries:   entries,
		counters:  make(map[int]int8),
		max:       3,
		threshold: 2,
	}
}

// Reset empties the prediction table (construction state; capacity and
// confidence parameters are construction-time shape and survive).
func (p *ElisionPredictor) Reset() {
	clear(p.counters)
	p.order = p.order[:0]
}

func (p *ElisionPredictor) get(site int) int8 {
	if c, ok := p.counters[site]; ok {
		return c
	}
	if len(p.counters) >= p.entries {
		old := p.order[0]
		p.order = p.order[1:]
		delete(p.counters, old)
	}
	p.counters[site] = p.max // optimistic initial prediction
	p.order = append(p.order, site)
	return p.max
}

// ShouldElide reports whether the lock at site should be elided.
func (p *ElisionPredictor) ShouldElide(site int) bool {
	return p.get(site) >= p.threshold
}

// Success reinforces elision after a committed lock-free execution.
func (p *ElisionPredictor) Success(site int) {
	if c := p.get(site); c < p.max {
		p.counters[site] = c + 1
	}
}

// Failure weakens elision after speculation on the site had to give up and
// acquire the lock.
func (p *ElisionPredictor) Failure(site int) {
	if c := p.get(site); c > 0 {
		p.counters[site] = c - 1
	}
}

// RMWPredictor is the PC-indexed predictor of §3.1.2 that collapses
// read-modify-write sequences inside critical sections into a single
// exclusive request, eliminating the upgrade that would otherwise invalidate
// other readers (or, under TLR, misspeculate them). Table 2: 128 entries,
// used by ALL configurations including BASE.
//
// Training: when a store inside a critical section hits an address that a
// tracked load (identified by its site) read earlier in the same critical
// section, that load site learns to fetch exclusive.
type RMWPredictor struct {
	entries  int
	counters map[int]int8
	order    []int

	max       int8
	threshold int8

	// loads maps word address -> load site for the current critical
	// section, so stores can find the load that fetched their operand.
	loads map[memsys.Addr]int
}

// NewRMWPredictor returns a predictor with the given table capacity
// (Table 2: 128).
func NewRMWPredictor(entries int) *RMWPredictor {
	if entries <= 0 {
		entries = 128
	}
	return &RMWPredictor{
		entries:   entries,
		counters:  make(map[int]int8),
		max:       3,
		threshold: 2,
		loads:     make(map[memsys.Addr]int),
	}
}

// Reset empties the prediction and load-tracking tables (construction
// state).
func (p *RMWPredictor) Reset() {
	clear(p.counters)
	p.order = p.order[:0]
	clear(p.loads)
}

func (p *RMWPredictor) get(site int) int8 {
	if c, ok := p.counters[site]; ok {
		return c
	}
	if len(p.counters) >= p.entries {
		old := p.order[0]
		p.order = p.order[1:]
		delete(p.counters, old)
	}
	p.counters[site] = 0
	p.order = append(p.order, site)
	return 0
}

// PredictExclusive reports whether the load at site should fetch its line
// exclusively. site 0 means "no static site information" and never predicts.
func (p *RMWPredictor) PredictExclusive(site int) bool {
	if site == 0 {
		return false
	}
	return p.get(site) >= p.threshold
}

// NoteLoad records a critical-section load for later training.
func (p *RMWPredictor) NoteLoad(site int, a memsys.Addr) {
	if site == 0 {
		return
	}
	p.loads[a] = site
}

// NoteStore trains the predictor: a store to a previously-loaded address
// strengthens the corresponding load site.
func (p *RMWPredictor) NoteStore(a memsys.Addr) {
	site, ok := p.loads[a]
	if !ok {
		return
	}
	if c := p.get(site); c < p.max {
		p.counters[site] = c + 1
	}
	delete(p.loads, a)
}

// EndSection ends a critical section: untrained loads (no matching store)
// decay so pure readers stop predicting exclusive.
func (p *RMWPredictor) EndSection() {
	for _, site := range p.loads {
		if c := p.get(site); c > 0 {
			p.counters[site] = c - 1
		}
	}
	clear(p.loads)
}

// TableUsed reports how many sites the predictor currently tracks (the
// paper notes only radiosity used more than 30 of 128 entries).
func (p *RMWPredictor) TableUsed() int { return len(p.counters) }
