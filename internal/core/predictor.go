package core

import "tlrsim/internal/memsys"

// siteTable is a predictor's hardware table: saturating confidence counters
// indexed by site, at most entries of them. It is two parallel slices in
// insertion order, oldest first; a new site entering a full table evicts the
// oldest entry (FIFO replacement).
type siteTable struct {
	entries  int
	sites    []int
	counters []int8
}

// slot returns the index of site's counter, inserting the site with counter
// init (and evicting the oldest entry if the table is full) when it is
// absent.
func (t *siteTable) slot(site int, init int8) int {
	for i, s := range t.sites {
		if s == site {
			return i
		}
	}
	if len(t.sites) >= t.entries {
		t.sites = append(t.sites[:0], t.sites[1:]...)
		t.counters = append(t.counters[:0], t.counters[1:]...)
	}
	t.sites = append(t.sites, site)
	t.counters = append(t.counters, init)
	return len(t.sites) - 1
}

func (t *siteTable) reset() {
	t.sites = t.sites[:0]
	t.counters = t.counters[:0]
}

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
	siteTable

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
		siteTable: siteTable{entries: entries},
		max:       3,
		threshold: 2,
	}
}

// Reset empties the prediction table (construction state; capacity and
// confidence parameters are construction-time shape and survive).
func (p *ElisionPredictor) Reset() { p.reset() }

// get returns site's counter index; a new site starts optimistic.
func (p *ElisionPredictor) get(site int) int { return p.slot(site, p.max) }

// ShouldElide reports whether the lock at site should be elided.
func (p *ElisionPredictor) ShouldElide(site int) bool {
	return p.counters[p.get(site)] >= p.threshold
}

// Success reinforces elision after a committed lock-free execution.
func (p *ElisionPredictor) Success(site int) {
	if i := p.get(site); p.counters[i] < p.max {
		p.counters[i]++
	}
}

// Failure weakens elision after speculation on the site had to give up and
// acquire the lock.
func (p *ElisionPredictor) Failure(site int) {
	if i := p.get(site); p.counters[i] > 0 {
		p.counters[i]--
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
	siteTable

	max       int8
	threshold int8

	// loads are the current critical section's tracked loads (word address
	// and load site), one per address, in program order, so stores can find
	// the load that fetched their operand and EndSection trains in a fixed
	// order.
	loads []siteLoad
}

type siteLoad struct {
	addr memsys.Addr
	site int
}

// NewRMWPredictor returns a predictor with the given table capacity
// (Table 2: 128).
func NewRMWPredictor(entries int) *RMWPredictor {
	if entries <= 0 {
		entries = 128
	}
	return &RMWPredictor{
		siteTable: siteTable{entries: entries},
		max:       3,
		threshold: 2,
	}
}

// Reset empties the prediction and load-tracking tables (construction
// state).
func (p *RMWPredictor) Reset() {
	p.reset()
	p.loads = p.loads[:0]
}

// get returns site's counter index; a new site starts at 0.
func (p *RMWPredictor) get(site int) int { return p.slot(site, 0) }

// PredictExclusive reports whether the load at site should fetch its line
// exclusively. site 0 means "no static site information" and never predicts.
func (p *RMWPredictor) PredictExclusive(site int) bool {
	if site == 0 {
		return false
	}
	return p.counters[p.get(site)] >= p.threshold
}

// NoteLoad records a critical-section load for later training. A later load
// of the same address replaces the site of the earlier one.
func (p *RMWPredictor) NoteLoad(site int, a memsys.Addr) {
	if site == 0 {
		return
	}
	for i := range p.loads {
		if p.loads[i].addr == a {
			p.loads[i].site = site
			return
		}
	}
	p.loads = append(p.loads, siteLoad{a, site})
}

// NoteStore trains the predictor: a store to a previously-loaded address
// strengthens the corresponding load site.
func (p *RMWPredictor) NoteStore(a memsys.Addr) {
	for i, l := range p.loads {
		if l.addr != a {
			continue
		}
		if c := p.get(l.site); p.counters[c] < p.max {
			p.counters[c]++
		}
		p.loads = append(p.loads[:i], p.loads[i+1:]...)
		return
	}
}

// EndSection ends a critical section: untrained loads (no matching store)
// decay, in program order, so pure readers stop predicting exclusive.
func (p *RMWPredictor) EndSection() {
	for _, l := range p.loads {
		if c := p.get(l.site); p.counters[c] > 0 {
			p.counters[c]--
		}
	}
	p.loads = p.loads[:0]
}

// TableUsed reports how many sites the predictor currently tracks (the
// paper notes only radiosity used more than 30 of 128 entries).
func (p *RMWPredictor) TableUsed() int { return len(p.sites) }
