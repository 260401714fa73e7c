package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"tlrsim/internal/memsys"
)

// Gauge is a time-weighted level: it is moved at the cycle the level
// changes and integrates level×cycles between changes, so Mean is exact
// over the run rather than sampled, and the gauge owns no kernel events. A
// nil *Gauge is disabled; Set on it is one pointer test.
type Gauge struct {
	level, at, area, max uint64
}

// Set moves the level to v at cycle at (at never decreases).
func (g *Gauge) Set(at, v uint64) {
	if g == nil {
		return
	}
	g.area += g.level * (at - g.at)
	g.at, g.level = at, v
	if v > g.max {
		g.max = v
	}
}

// Level returns the current level.
func (g *Gauge) Level() uint64 { return g.level }

// Max returns the highest level reached.
func (g *Gauge) Max() uint64 { return g.max }

// Mean returns the time-weighted mean level over cycles [0, end), end being
// at or past the last change.
func (g *Gauge) Mean(end uint64) float64 {
	if end == 0 {
		return 0
	}
	return float64(g.area+g.level*(end-g.at)) / float64(end)
}

// LockStats counts how critical sections protected by one lock actually
// executed. §4: "The spin-wait loop of the lock acquire will only be
// reached if TLR has failed, thus giving the programmer a method of
// detecting when wait-freedom has not been achieved" — Acquired == 0 is
// that detector.
type LockStats struct {
	// Elided counts critical sections committed lock-free.
	Elided uint64
	// Acquired counts real lock acquisitions (BASE/MCS always; SLE/TLR
	// only on fallback).
	Acquired uint64
}

// LockProfile is the per-lock contention profile: how the critical sections
// protected by one lock actually executed. Profiles are preallocated when
// the lock is registered, so hot-path updates are plain integer stores.
type LockProfile struct {
	// ID is the lock's static site id, Addr its lock-word address.
	ID   int
	Addr memsys.Addr

	// Stats is the lock's own acquire/elide counters, read in place (their
	// ratio is the elision success rate). Fallbacks counts elision give-ups
	// that forced an acquire.
	Stats     *LockStats
	Fallbacks uint64
	// Aborts counts transaction restarts attributed to critical sections
	// under this lock; DeferralVictims counts remote requests made to wait
	// behind this lock's transactions.
	Aborts          uint64
	DeferralVictims uint64

	// Hold is the critical-section occupancy histogram: cycles from
	// dispatch of the outermost Critical frame to its completion,
	// restarts included.
	Hold Hist
}

// ElideRate returns the fraction of completed critical sections that ran
// lock-free.
func (p *LockProfile) ElideRate() float64 {
	total := p.activity()
	if total == 0 {
		return 0
	}
	return float64(p.Stats.Elided) / float64(total)
}

// activity ranks the profile for hot-lock reporting.
func (p *LockProfile) activity() uint64 { return p.Stats.Acquired + p.Stats.Elided }

// sortLockProfiles orders profiles hottest first — the per-lock analogue of
// ranking Figure 11's bars. Equal-activity ties break on the stable lock
// identity, ID then address, so the contention dump is deterministic across
// runs regardless of registration/allocation incidentals.
func sortLockProfiles(profiles []*LockProfile) []*LockProfile {
	out := append([]*LockProfile(nil), profiles...)
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].activity(), out[j].activity()
		if ai != aj {
			return ai > aj
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Set is the simulator-wide instrument set threaded through one machine:
// the paper counters, latency histograms, time-weighted gauges and per-lock
// profiles the processor, coherence and bus layers update. A nil *Set is
// the disabled state — every method is nil-safe, so call sites need no
// guards and disabled cost is one pointer test. Everything is preallocated
// at construction (or lock registration), so an enabled update is a handful
// of integer stores: no maps are written, no slices grow, no interfaces box,
// and nothing schedules kernel events.
type Set struct {
	// Paper-level event counters.
	Commits   uint64
	Aborts    uint64
	Deferrals uint64
	Fallbacks uint64

	// CritCycles: cycles per critical section (entry to exit, restarts
	// included). CommitRetries: restarts absorbed before each successful
	// commit. DeferWait: cycles a deferred request waited for service.
	// WBDrain: speculative write-buffer lines drained per commit.
	CritCycles    Hist
	CommitRetries Hist
	DeferWait     Hist
	WBDrain       Hist

	// BusOccupancy: address transactions queued or outstanding on the bus
	// (the bus moves it). DeferDepth: deferred requests buffered across
	// all engines. OutstandingMisses: MSHRs across all controllers.
	BusOccupancy      Gauge
	DeferDepth        Gauge
	OutstandingMisses Gauge

	// current tracks, per CPU, the profile of the lock whose critical
	// section is in flight, so coherence-layer events (aborts, deferrals)
	// can be attributed without knowing about locks. mshrs holds each
	// CPU's share of OutstandingMisses.
	current []*LockProfile
	mshrs   []uint64

	locks []*LockProfile
}

// NewSet builds the instrument set for a machine with procs CPUs.
func NewSet(procs int) *Set {
	return &Set{current: make([]*LockProfile, procs), mshrs: make([]uint64, procs)}
}

// Reset rewinds the instrument set to the state NewSet constructs: every
// instrument zeroed in place, all lock profiles dropped (locks are
// re-registered by the next workload's NewLock calls). Nil-safe.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	*s = Set{current: s.current, mshrs: s.mshrs, locks: s.locks[:0]}
	clear(s.current)
	clear(s.mshrs)
}

// RegisterLock preallocates the contention profile for a lock word whose
// own counters are st. Construction-time only; returns nil on a disabled
// set so Lock carries a nil profile pointer and hot sites skip with one
// test.
func (s *Set) RegisterLock(addr memsys.Addr, id int, st *LockStats) *LockProfile {
	if s == nil {
		return nil
	}
	p := &LockProfile{ID: id, Addr: addr, Stats: st}
	s.locks = append(s.locks, p)
	return p
}

// Locks returns every registered profile, hottest first.
func (s *Set) Locks() []*LockProfile {
	if s == nil {
		return nil
	}
	return sortLockProfiles(s.locks)
}

// SetCurrent marks p as the lock profile owning cpu's in-flight critical
// section (nil clears it).
func (s *Set) SetCurrent(cpu int, p *LockProfile) {
	if s == nil {
		return
	}
	s.current[cpu] = p
}

// NoteCritDone records a completed critical section: cycles from dispatch
// to completion, restarts included.
func (s *Set) NoteCritDone(cpu int, p *LockProfile, cycles uint64) {
	if s == nil {
		return
	}
	s.CritCycles.Observe(cycles)
	if p != nil {
		p.Hold.Observe(cycles)
	}
}

// NoteRetries records how many restarts a successful commit absorbed.
func (s *Set) NoteRetries(restarts uint64) {
	if s == nil {
		return
	}
	s.CommitRetries.Observe(restarts)
}

// NoteCommit records a transaction commit and its write-buffer drain size.
func (s *Set) NoteCommit(cpu int, wbLines uint64) {
	if s == nil {
		return
	}
	s.Commits++
	s.WBDrain.Observe(wbLines)
}

// NoteAbort records a transaction abort, attributed to the lock whose
// critical section cpu is executing.
func (s *Set) NoteAbort(cpu int) {
	if s == nil {
		return
	}
	s.Aborts++
	if p := s.current[cpu]; p != nil {
		p.Aborts++
	}
}

// NoteDeferral records an incoming request deferred at cycle at behind
// cpu's transaction (the requester is this lock's deferral victim).
func (s *Set) NoteDeferral(cpu int, at uint64) {
	if s == nil {
		return
	}
	s.Deferrals++
	s.DeferDepth.Set(at, s.DeferDepth.Level()+1)
	if p := s.current[cpu]; p != nil {
		p.DeferralVictims++
	}
}

// NoteDeferServed records a deferred request answered at cycle at after
// waiting waitCycles.
func (s *Set) NoteDeferServed(at, waitCycles uint64) {
	if s == nil {
		return
	}
	s.DeferWait.Observe(waitCycles)
	s.DeferDepth.Set(at, s.DeferDepth.Level()-1)
}

// NoteMSHRs records that cpu holds n outstanding misses from cycle at.
func (s *Set) NoteMSHRs(cpu int, at uint64, n int) {
	if s == nil {
		return
	}
	s.OutstandingMisses.Set(at, s.OutstandingMisses.Level()+uint64(n)-s.mshrs[cpu])
	s.mshrs[cpu] = uint64(n)
}

// NoteFallback records elision giving up and acquiring p's lock for real.
func (s *Set) NoteFallback(cpu int, p *LockProfile) {
	if s == nil {
		return
	}
	s.Fallbacks++
	if p != nil {
		p.Fallbacks++
	}
}

// maxLockRows bounds the per-lock section of the dump: fine-grained
// workloads register thousands of locks, and the ranking already puts the
// informative ones first.
const maxLockRows = 16

// histString renders a histogram as count/mean/p50/p99/p999/max and unit.
func histString(h *Hist, unit string) string {
	if h.Count() == 0 {
		return "count=0 " + unit
	}
	d := distOf(h)
	return fmt.Sprintf("count=%d mean=%.1f p50/p99/p999=%s max=%d %s",
		d.Count, d.Mean, quants(d), d.Max, unit)
}

// Dump renders the full instrument set deterministically: counters,
// histograms, gauges time-weighted over cycles [0, end), then lock profiles
// hottest first.
func (s *Set) Dump(end uint64) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("counters:\n")
	for _, c := range []struct {
		name string
		v    uint64
	}{{"commits", s.Commits}, {"aborts", s.Aborts}, {"deferrals", s.Deferrals}, {"fallbacks", s.Fallbacks}} {
		fmt.Fprintf(&b, "  %-24s %d\n", c.name, c.v)
	}
	b.WriteString("histograms:\n")
	for _, h := range []struct {
		name, unit string
		h          *Hist
	}{
		{"crit_cycles", "cycles", &s.CritCycles},
		{"retries_per_commit", "restarts", &s.CommitRetries},
		{"defer_wait", "cycles", &s.DeferWait},
		{"wb_drain", "lines", &s.WBDrain},
	} {
		fmt.Fprintf(&b, "  %-24s %s\n", h.name, histString(h.h, h.unit))
	}
	fmt.Fprintf(&b, "gauges (time-weighted over %d cycles):\n", end)
	for _, g := range []struct {
		name string
		g    *Gauge
	}{
		{"bus_occupancy", &s.BusOccupancy},
		{"defer_queue_depth", &s.DeferDepth},
		{"outstanding_misses", &s.OutstandingMisses},
	} {
		fmt.Fprintf(&b, "  %-24s mean=%.3f max=%d\n", g.name, g.g.Mean(end), g.g.Max())
	}
	ranked := s.Locks()
	if len(ranked) > 0 {
		b.WriteString("locks (hottest first):\n")
		for i, p := range ranked {
			if i >= maxLockRows {
				fmt.Fprintf(&b, "  (+%d more locks)\n", len(ranked)-maxLockRows)
				break
			}
			fmt.Fprintf(&b, "  lock id=%d %s: acquires=%d elided=%d elide%%=%.1f fallbacks=%d aborts=%d deferral-victims=%d\n",
				p.ID, p.Addr, p.Stats.Acquired, p.Stats.Elided, 100*p.ElideRate(),
				p.Fallbacks, p.Aborts, p.DeferralVictims)
			fmt.Fprintf(&b, "    hold: %s\n", histString(&p.Hold, "cycles"))
		}
	}
	return b.String()
}
