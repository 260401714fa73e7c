package proc

import (
	"testing"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/coherence"
	"tlrsim/internal/sim"
)

func cfg(procs int, scheme Scheme) Config {
	return Config{
		Procs:  procs,
		Scheme: scheme,
		Seed:   42,
		Coherence: coherence.Config{
			Cache: cache.Config{SizeBytes: 32768, Ways: 4, VictimEntries: 16},
			Bus:   bus.Config{SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2, MaxOutstanding: 120},
			L2Lat: 12, MemLat: 70, WriteBufferLines: 64,
		},
		UseRMWPredictor: true,
		EnableChecker:   true,
		MaxEvents:       50_000_000,
	}
}

var allSchemes = []Scheme{Base, SLE, TLR, TLRStrictTS, MCS}

func TestSingleThreadLoadStore(t *testing.T) {
	m := NewMachine(cfg(1, Base))
	a := m.Alloc.Words(4)
	m.Mem().WriteWord(a, 5)
	var got uint64
	err := m.Run([]func(*TC){func(tc *TC) {
		got = tc.Load(a)
		tc.Store(a+8, got*2)
		tc.Compute(100)
		tc.Store(a+16, tc.Load(a+8)+1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("load = %d", got)
	}
	if v := m.Sys.ArchWord(a + 16); v != 11 {
		t.Fatalf("final = %d, want 11", v)
	}
	if m.Cycles() < 100 {
		t.Fatalf("cycles = %d, compute not charged", m.Cycles())
	}
}

// TestCounterAllSchemes is the serializability oracle: N threads each
// increment a shared counter K times inside a critical section; the final
// value must be exactly N*K under every scheme.
func TestCounterAllSchemes(t *testing.T) {
	const iters = 50
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			m := NewMachine(cfg(4, scheme))
			l := m.NewLock()
			ctr := m.Alloc.PaddedWord()
			progs := make([]func(*TC), 4)
			for i := range progs {
				progs[i] = func(tc *TC) {
					for n := 0; n < iters; n++ {
						tc.Critical(l, func() {
							v := tc.LoadSite(ctr, 1)
							tc.Store(ctr, v+1)
						})
						tc.Compute(uint64(tc.Rand().Intn(50)))
					}
				}
			}
			if err := m.Run(progs); err != nil {
				t.Fatal(err)
			}
			if v := m.Sys.ArchWord(ctr); v != 4*iters {
				t.Fatalf("counter = %d, want %d", v, 4*iters)
			}
			if err := m.Sys.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDisjointCountersNoConflicts (multiple-counter microbenchmark shape):
// under TLR, disjoint critical sections never restart and never write the
// lock.
func TestDisjointCountersNoConflicts(t *testing.T) {
	const iters = 50
	m := NewMachine(cfg(4, TLR))
	l := m.NewLock()
	ctrs := m.Alloc.PaddedWords(4)
	progs := make([]func(*TC), 4)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < iters; n++ {
				tc.Critical(l, func() {
					tc.Store(ctrs[i], tc.LoadSite(ctrs[i], 1)+1)
				})
			}
		}
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	for i := range ctrs {
		if v := m.Sys.ArchWord(ctrs[i]); v != iters {
			t.Fatalf("counter %d = %d, want %d", i, v, iters)
		}
	}
	var aborts, commits, fallbacks uint64
	for _, c := range m.CPUs {
		aborts += c.Engine().Stats().TotalAborts()
		commits += c.Engine().Stats().Commits
		fallbacks += c.Engine().Stats().Fallbacks
	}
	if commits != 4*iters {
		t.Fatalf("commits = %d, want %d", commits, 4*iters)
	}
	if aborts != 0 || fallbacks != 0 {
		t.Fatalf("aborts=%d fallbacks=%d, want 0/0 for disjoint data", aborts, fallbacks)
	}
	if v := m.Sys.ArchWord(l.Addr); v != 0 {
		t.Fatal("lock was written despite elision")
	}
}

// TestContendedCounterTLRCommitsLockFree: high-conflict single counter.
// TLR must complete all work without ever acquiring the lock.
func TestContendedCounterTLRCommitsLockFree(t *testing.T) {
	const iters = 30
	m := NewMachine(cfg(4, TLR))
	l := m.NewLock()
	ctr := m.Alloc.PaddedWord()
	progs := make([]func(*TC), 4)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < iters; n++ {
				tc.Critical(l, func() {
					tc.Store(ctr, tc.LoadSite(ctr, 7)+1)
				})
			}
		}
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if v := m.Sys.ArchWord(ctr); v != 4*iters {
		t.Fatalf("counter = %d, want %d", v, 4*iters)
	}
	var fallbacks uint64
	for _, c := range m.CPUs {
		fallbacks += c.Engine().Stats().Fallbacks
	}
	if fallbacks != 0 {
		t.Fatalf("TLR acquired the lock %d times under pure data contention", fallbacks)
	}
}

// TestSLEFallsBackUnderConflicts: the same contended counter under SLE must
// still be correct, and (unlike TLR) ends up acquiring locks.
func TestSLEFallsBackUnderConflicts(t *testing.T) {
	const iters = 30
	m := NewMachine(cfg(4, SLE))
	l := m.NewLock()
	ctr := m.Alloc.PaddedWord()
	progs := make([]func(*TC), 4)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < iters; n++ {
				tc.Critical(l, func() {
					tc.Store(ctr, tc.LoadSite(ctr, 7)+1)
				})
				tc.Compute(uint64(tc.Rand().Intn(30)))
			}
		}
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if v := m.Sys.ArchWord(ctr); v != 4*iters {
		t.Fatalf("counter = %d, want %d", v, 4*iters)
	}
	var fallbacks uint64
	for _, c := range m.CPUs {
		fallbacks += c.Engine().Stats().Fallbacks
	}
	if fallbacks == 0 {
		t.Fatal("SLE under heavy conflicts should fall back to acquisition")
	}
}

func TestNestedCriticalSections(t *testing.T) {
	for _, scheme := range []Scheme{Base, TLR} {
		t.Run(scheme.String(), func(t *testing.T) {
			const iters = 20
			m := NewMachine(cfg(2, scheme))
			outer, inner := m.NewLock(), m.NewLock()
			x, y := m.Alloc.PaddedWord(), m.Alloc.PaddedWord()
			progs := make([]func(*TC), 2)
			for i := range progs {
				progs[i] = func(tc *TC) {
					for n := 0; n < iters; n++ {
						tc.Critical(outer, func() {
							tc.Store(x, tc.Load(x)+1)
							tc.Critical(inner, func() {
								tc.Store(y, tc.Load(y)+1)
							})
						})
					}
				}
			}
			if err := m.Run(progs); err != nil {
				t.Fatal(err)
			}
			if vx, vy := m.Sys.ArchWord(x), m.Sys.ArchWord(y); vx != 2*iters || vy != 2*iters {
				t.Fatalf("x=%d y=%d, want %d each", vx, vy, 2*iters)
			}
		})
	}
}

// TestDeepNestingTreatsInnerLockAsData: beyond the elision depth the inner
// lock is acquired as speculative data (§4) and everything stays correct.
func TestDeepNestingTreatsInnerLockAsData(t *testing.T) {
	c := cfg(2, TLR)
	c.Policy.MaxElisionDepth = 2
	m := NewMachine(c)
	l1, l2, l3 := m.NewLock(), m.NewLock(), m.NewLock()
	x := m.Alloc.PaddedWord()
	progs := make([]func(*TC), 2)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < 10; n++ {
				tc.Critical(l1, func() {
					tc.Critical(l2, func() {
						tc.Critical(l3, func() { // exceeds depth 2: acquired as data
							tc.Store(x, tc.Load(x)+1)
						})
					})
				})
			}
		}
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if v := m.Sys.ArchWord(x); v != 20 {
		t.Fatalf("x = %d, want 20", v)
	}
}

// TestWriteBufferOverflowFallsBack (§3.3): a critical section writing more
// distinct lines than the write buffer holds must acquire the lock and
// still complete correctly.
func TestWriteBufferOverflowFallsBack(t *testing.T) {
	c := cfg(2, TLR)
	c.Coherence.WriteBufferLines = 4
	m := NewMachine(c)
	l := m.NewLock()
	data := m.Alloc.PaddedWords(8)
	progs := make([]func(*TC), 2)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < 5; n++ {
				tc.Critical(l, func() {
					for _, a := range data {
						tc.Store(a, tc.Load(a)+1)
					}
				})
			}
		}
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	for _, a := range data {
		if v := m.Sys.ArchWord(a); v != 10 {
			t.Fatalf("word %s = %d, want 10", a, v)
		}
	}
	var fallbacks uint64
	for _, cpu := range m.CPUs {
		fallbacks += cpu.Engine().Stats().Fallbacks
	}
	if fallbacks == 0 {
		t.Fatal("overflowing transactions must fall back to the lock")
	}
}

// TestUnelidableForcesAcquisition (§2.2 step 3).
func TestUnelidableForcesAcquisition(t *testing.T) {
	m := NewMachine(cfg(2, TLR))
	l := m.NewLock()
	x := m.Alloc.PaddedWord()
	progs := make([]func(*TC), 2)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < 10; n++ {
				tc.Critical(l, func() {
					tc.Unelidable()
					tc.Store(x, tc.Load(x)+1)
				})
			}
		}
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if v := m.Sys.ArchWord(x); v != 20 {
		t.Fatalf("x = %d, want 20", v)
	}
	var fallbacks uint64
	for _, cpu := range m.CPUs {
		fallbacks += cpu.Engine().Stats().Fallbacks
	}
	if fallbacks == 0 {
		t.Fatal("Unelidable must force lock acquisition")
	}
}

func TestSpinUntilProducerConsumer(t *testing.T) {
	m := NewMachine(cfg(2, Base))
	flag := m.Alloc.PaddedWord()
	box := m.Alloc.PaddedWord()
	var got uint64
	err := m.Run([]func(*TC){
		func(tc *TC) { // producer
			tc.Compute(500)
			tc.Store(box, 777)
			tc.Store(flag, 1)
		},
		func(tc *TC) { // consumer
			tc.SpinUntil(flag, func(v uint64) bool { return v == 1 })
			got = tc.Load(box)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Fatalf("consumer got %d", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := NewMachine(cfg(4, TLR))
		l := m.NewLock()
		ctr := m.Alloc.PaddedWord()
		progs := make([]func(*TC), 4)
		for i := range progs {
			progs[i] = func(tc *TC) {
				for n := 0; n < 20; n++ {
					tc.Critical(l, func() { tc.Store(ctr, tc.Load(ctr)+1) })
					tc.Compute(uint64(tc.Rand().Intn(40)))
				}
			}
		}
		if err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		return m.Cycles()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// TestLockStallAttribution: contended BASE runs must attribute substantial
// stall to the lock variable (Figure 11's accounting).
func TestLockStallAttribution(t *testing.T) {
	m := NewMachine(cfg(4, Base))
	l := m.NewLock()
	ctr := m.Alloc.PaddedWord()
	progs := make([]func(*TC), 4)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < 20; n++ {
				tc.Critical(l, func() { tc.Store(ctr, tc.Load(ctr)+1) })
			}
		}
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	var lock, data uint64
	for _, cpu := range m.CPUs {
		lock += cpu.Stats().LockStall
		data += cpu.Stats().DataStall
	}
	if lock == 0 {
		t.Fatal("contended BASE must accumulate lock stall")
	}
}

// TestBodyReexecutionIsTransparent: restarted bodies recompute from
// simulated state, so the final answer matches a serial execution even
// though the body ran more times than it committed.
func TestBodyReexecutionIsTransparent(t *testing.T) {
	m := NewMachine(cfg(4, TLR))
	l := m.NewLock()
	ctr := m.Alloc.PaddedWord()
	execs := make([]int, 4)
	progs := make([]func(*TC), 4)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < 25; n++ {
				tc.Critical(l, func() {
					execs[i]++ // host-side effect: counts executions, not commits
					tc.Store(ctr, tc.Load(ctr)+1)
				})
			}
		}
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if v := m.Sys.ArchWord(ctr); v != 100 {
		t.Fatalf("counter = %d, want 100", v)
	}
	total := execs[0] + execs[1] + execs[2] + execs[3]
	if total < 100 {
		t.Fatalf("bodies executed %d times < 100 commits?", total)
	}
}

// TestLockStatsWaitFreeDetector (§4): per-lock counters expose whether
// every critical section ran lock-free — BASE acquires always, TLR on a
// conflict-free or data-conflicting (but resource-sufficient) workload
// never does.
func TestLockStatsWaitFreeDetector(t *testing.T) {
	run := func(scheme Scheme) *Lock {
		m := NewMachine(cfg(4, scheme))
		l := m.NewLock()
		ctr := m.Alloc.PaddedWord()
		progs := make([]func(*TC), 4)
		for i := range progs {
			progs[i] = func(tc *TC) {
				for n := 0; n < 25; n++ {
					tc.Critical(l, func() { tc.Store(ctr, tc.Load(ctr)+1) })
				}
			}
		}
		if err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		return l
	}
	if l := run(TLR); !l.WaitFree() {
		t.Fatalf("TLR lock should be wait-free: %+v", l.Stats())
	}
	if l := run(Base); l.WaitFree() || l.Stats().Acquired != 100 {
		t.Fatalf("BASE lock should be acquired every time: %+v", l.Stats())
	}
	if l := run(SLE); l.WaitFree() {
		t.Fatalf("SLE under conflicts should have acquisitions: %+v", l.Stats())
	}
	if l := run(SLE); l.Stats().Elided+l.Stats().Acquired != 100 {
		t.Fatalf("every critical section is either elided or acquired: %+v", l.Stats())
	}
}

func TestGuaranteedFootprintLines(t *testing.T) {
	m := NewMachine(cfg(2, TLR))
	want := m.Config().Coherence.Cache.Ways + m.Config().Coherence.Cache.VictimEntries
	if got := m.GuaranteedFootprintLines(); got != want {
		t.Fatalf("GuaranteedFootprintLines = %d, want %d", got, want)
	}
}
