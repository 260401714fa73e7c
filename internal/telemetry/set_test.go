package telemetry

import (
	"math"
	"strings"
	"testing"
)

// TestGaugeTimeWeighted pins the gauge arithmetic: the mean integrates the
// level over the cycles it was held, the max is the highest level set, and
// a nil gauge ignores updates.
func TestGaugeTimeWeighted(t *testing.T) {
	var g Gauge
	if g.Mean(0) != 0 || g.Mean(100) != 0 {
		t.Fatalf("untouched gauge mean = %v/%v, want 0", g.Mean(0), g.Mean(100))
	}
	g.Set(10, 4) // level 0 over [0,10)
	g.Set(30, 1) // level 4 over [10,30)
	g.Set(30, 6) // zero-length level 1
	g.Set(40, 2) // level 6 over [30,40)
	// level 2 over [40,100): area = 4*20 + 6*10 + 2*60 = 260.
	if got := g.Mean(100); got != 2.6 {
		t.Fatalf("mean over 100 cycles = %v, want 2.6", got)
	}
	if g.Max() != 6 || g.Level() != 2 {
		t.Fatalf("max/level = %d/%d, want 6/2", g.Max(), g.Level())
	}
	var off *Gauge
	off.Set(5, 9) // must not panic
}

// TestGaugeAllocFree asserts that moving and reading a gauge never
// allocates, enabled or disabled (nil receiver).
func TestGaugeAllocFree(t *testing.T) {
	var g Gauge
	var off *Gauge
	var at uint64
	if a := testing.AllocsPerRun(200, func() {
		at++
		g.Set(at, at%7)
		off.Set(at, 3)
		_ = g.Mean(at + 1)
	}); a != 0 {
		t.Fatalf("gauge update allocates: %.1f allocs/run", a)
	}
}

// TestHistogramEdgeCases pins how the dump renders a histogram at the
// edges: an empty one stays terse, and v=0 beside v=MaxUint64 records both
// and reports the exact extremes.
func TestHistogramEdgeCases(t *testing.T) {
	var h Hist
	if got := histString(&h, "cycles"); got != "count=0 cycles" {
		t.Fatalf("empty rendering = %q", got)
	}
	h.Observe(0)
	h.Observe(math.MaxUint64)
	want := "count=2 mean=9223372036854775808.0 p50/p99/p999=0/18446744073709551615/18446744073709551615 max=18446744073709551615 cycles"
	if got := histString(&h, "cycles"); got != want {
		t.Fatalf("extremes rendering = %q, want %q", got, want)
	}
}

// TestHistogramQuantileBound pins the documented contract on a uniform
// 1..1000 series: Quantile never underestimates, is exact below 64 and
// overestimates by strictly less than 1/32 above.
func TestHistogramQuantileBound(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		q     float64
		truth uint64
	}{
		{0.05, 50}, {0.5, 500}, {0.99, 990}, {0.999, 999},
	} {
		got := h.Quantile(tc.q)
		if got < tc.truth {
			t.Fatalf("q%v = %d below true %d", tc.q, got, tc.truth)
		}
		if tc.truth < 64 {
			if got != tc.truth {
				t.Fatalf("q%v = %d, want exact %d below 64", tc.q, got, tc.truth)
			}
		} else if d := got - tc.truth; d*32 >= tc.truth {
			t.Fatalf("q%v = %d overestimates true %d by >= 1/32", tc.q, got, tc.truth)
		}
	}
}

// TestSortLockProfilesTieBreak pins the deterministic hottest-first ranking:
// equal activity breaks on lock ID, then address.
func TestSortLockProfilesTieBreak(t *testing.T) {
	a := &LockProfile{ID: 3, Addr: 0x300, Stats: &LockStats{Acquired: 10}}
	b := &LockProfile{ID: 1, Addr: 0x900, Stats: &LockStats{Acquired: 10}}
	c := &LockProfile{ID: 2, Addr: 0x100, Stats: &LockStats{Acquired: 25}}
	got := sortLockProfiles([]*LockProfile{a, b, c})
	want := []*LockProfile{c, b, a} // activity desc, then ID asc
	for i := range want {
		if got[i] != want[i] {
			ids := make([]int, len(got))
			for j, p := range got {
				ids[j] = p.ID
			}
			t.Fatalf("rank order (by ID) = %v, want [2 1 3]", ids)
		}
	}
}

// TestHotPathAllocFree asserts that every update the simulator makes on the
// hot path is allocation-free, both enabled and disabled (nil receiver).
func TestHotPathAllocFree(t *testing.T) {
	s := NewSet(4)
	var st LockStats
	p := s.RegisterLock(0x10040, 1, &st)
	s.SetCurrent(2, p)
	var at uint64
	if a := testing.AllocsPerRun(200, func() {
		at++
		s.CritCycles.Observe(300)
		s.NoteCritDone(2, p, 512)
		s.NoteRetries(3)
		s.NoteCommit(2, 8)
		s.NoteAbort(2)
		s.NoteDeferral(2, at)
		s.NoteDeferServed(at, 40)
		s.NoteMSHRs(2, at, 3)
		s.NoteFallback(2, p)
		s.BusOccupancy.Set(at, 5)
		p.Hold.Observe(128)
	}); a != 0 {
		t.Fatalf("enabled hot path allocates: %.1f allocs/run", a)
	}

	var off *Set
	if a := testing.AllocsPerRun(200, func() {
		off.SetCurrent(0, nil)
		off.NoteCritDone(0, nil, 1)
		off.NoteRetries(1)
		off.NoteCommit(0, 1)
		off.NoteAbort(0)
		off.NoteDeferral(0, 1)
		off.NoteDeferServed(1, 1)
		off.NoteMSHRs(0, 1, 1)
		off.NoteFallback(0, nil)
	}); a != 0 {
		t.Fatalf("disabled (nil) hot path allocates: %.1f allocs/run", a)
	}
}

// TestSetGaugesFollowNotes checks the gauges the Note hooks drive: deferral
// depth rises and falls with defer/serve pairs, and outstanding misses sum
// each CPU's latest MSHR count.
func TestSetGaugesFollowNotes(t *testing.T) {
	s := NewSet(2)
	s.NoteDeferral(0, 10)
	s.NoteDeferral(1, 10)
	s.NoteDeferServed(30, 20)
	s.NoteDeferServed(40, 30)
	if s.DeferDepth.Level() != 0 || s.DeferDepth.Max() != 2 {
		t.Fatalf("defer depth level/max = %d/%d, want 0/2", s.DeferDepth.Level(), s.DeferDepth.Max())
	}
	if got := s.DeferDepth.Mean(100); got != 0.5 { // 2*20 + 1*10 over 100
		t.Fatalf("defer depth mean = %v, want 0.5", got)
	}
	s.NoteMSHRs(0, 0, 2)
	s.NoteMSHRs(1, 0, 3)
	s.NoteMSHRs(0, 50, 1)
	if s.OutstandingMisses.Level() != 4 || s.OutstandingMisses.Max() != 5 {
		t.Fatalf("misses level/max = %d/%d, want 4/5", s.OutstandingMisses.Level(), s.OutstandingMisses.Max())
	}
	s.Reset()
	if s.DeferDepth != (Gauge{}) || s.OutstandingMisses != (Gauge{}) || s.mshrs[1] != 0 {
		t.Fatal("Reset left gauge state behind")
	}
}

func TestDumpRanksLocksAndIsDeterministic(t *testing.T) {
	s := NewSet(2)
	s.RegisterLock(0x200, 1, &LockStats{Acquired: 1})
	hot := s.RegisterLock(0x100, 2, &LockStats{Elided: 50, Acquired: 2})
	hot.Hold.Observe(900)
	s.NoteCommit(0, 3)
	s.BusOccupancy.Set(0, 2)
	d1 := s.Dump(10)
	d2 := s.Dump(10)
	if d1 != d2 {
		t.Fatal("dump is not deterministic")
	}
	hotAt := strings.Index(d1, "lock id=2")
	coldAt := strings.Index(d1, "lock id=1")
	if hotAt < 0 || coldAt < 0 || hotAt > coldAt {
		t.Fatalf("locks not ranked hottest first:\n%s", d1)
	}
	for _, want := range []string{
		"commits                  1", "wb_drain                 count=1 mean=3.0 p50/p99/p999=3/3/3 max=3 lines",
		"defer_wait               count=0 cycles", "gauges (time-weighted over 10 cycles):",
		"bus_occupancy            mean=2.000 max=2", "elide%=96.2", "hold: count=1 mean=900.0",
	} {
		if !strings.Contains(d1, want) {
			t.Errorf("dump missing %q:\n%s", want, d1)
		}
	}
}

func TestNilSetAccessors(t *testing.T) {
	var s *Set
	if s.Dump(1) != "" || s.Locks() != nil {
		t.Fatal("nil Set accessors must return zero values")
	}
	if p := s.RegisterLock(0x40, 1, &LockStats{}); p != nil {
		t.Fatal("RegisterLock on nil Set must return nil")
	}
	s.Reset() // must not panic
}
