package sim

// Edge cases the kernel must preserve, plus steady-state allocation
// assertions: the schedule/fire path (At, AtCall, Step, TryAdvance) must not
// allocate once the slab and the far heap have grown.

import (
	"runtime"
	"testing"
)

// Same-cycle FIFO must hold across events scheduled by a mix of At, After,
// AtCall, and AfterCall, interleaved with events at other cycles — the
// tie-break sequence is global, not per-API.
func TestSameCycleFIFOAcrossAPIs(t *testing.T) {
	k := New(1)
	var got []int
	rec := func(_, _ any, n uint64) { got = append(got, int(n)) }
	k.At(5, func() { got = append(got, 0) })
	k.AtCall(5, rec, nil, nil, 1)
	k.At(9, func() {
		if len(got) != 6 {
			t.Errorf("later cycle fired before all same-cycle events: %v", got)
		}
	})
	k.After(5, func() { got = append(got, 2) })
	k.AfterCall(5, rec, nil, nil, 3)
	k.At(5, func() { got = append(got, 4) })
	k.AtCall(5, rec, nil, nil, 5)
	k.At(9, func() {})
	k.Run()
	if len(got) != 6 {
		t.Fatalf("fired %d same-cycle events, want 6", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

// An event scheduled from inside a firing event AT the current cycle must
// fire within the same cycle, after already-queued same-cycle events.
func TestScheduleAtCurrentCycleFromEvent(t *testing.T) {
	k := New(1)
	var got []string
	k.At(10, func() {
		got = append(got, "a")
		k.At(k.Now(), func() { got = append(got, "spawned") })
		k.After(0, func() { got = append(got, "spawned2") })
	})
	k.At(10, func() { got = append(got, "b") })
	k.At(11, func() { got = append(got, "next-cycle") })
	k.Run()
	want := []string{"a", "b", "spawned", "spawned2", "next-cycle"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// RunLimit and RunUntil on an empty queue: both must return immediately with
// success semantics and leave the clock untouched.
func TestRunLimitRunUntilEmptyQueue(t *testing.T) {
	k := New(1)
	if !k.RunLimit(0) {
		t.Fatal("RunLimit(0) on empty queue should report true")
	}
	if !k.RunLimit(100) {
		t.Fatal("RunLimit on empty queue should report true")
	}
	if !k.RunUntil(func() bool { return true }) {
		t.Fatal("RunUntil with satisfied predicate should report true")
	}
	if k.RunUntil(func() bool { return false }) {
		t.Fatal("RunUntil on empty queue with false predicate should report false")
	}
	if k.Now() != 0 || k.Fired() != 0 {
		t.Fatalf("empty-queue runs moved the clock: now=%d fired=%d", k.Now(), k.Fired())
	}
	// RunLimit(0) with events pending: limit hit, events remain.
	k.At(5, func() {})
	if k.RunLimit(0) {
		t.Fatal("RunLimit(0) with pending events should report false")
	}
}

func TestTryAdvance(t *testing.T) {
	k := New(1)
	if !k.TryAdvance(7) {
		t.Fatal("TryAdvance on empty queue should succeed")
	}
	if k.Now() != 7 || k.Fired() != 1 {
		t.Fatalf("now=%d fired=%d, want 7/1", k.Now(), k.Fired())
	}
	k.At(10, func() {})
	if k.TryAdvance(10) {
		t.Fatal("TryAdvance must refuse when a queued event fires at or before t")
	}
	if !k.TryAdvance(9) {
		t.Fatal("TryAdvance short of the next event should succeed")
	}
	if k.Now() != 9 {
		t.Fatalf("now=%d, want 9", k.Now())
	}
}

// The schedule/fire path must be allocation-free in steady state for both
// the closure-free AtCall form and plain At with a pre-existing closure,
// including once the clock has lapped the wheel many times with near and far
// events mixed: the slab and the far heap are reused, never regrown.
func TestScheduleFireAllocFree(t *testing.T) {
	k := New(1)
	cb := Callback(func(_, _ any, _ uint64) {})
	fn := func() {}
	// Warm up the slab and the far heap.
	for i := 0; i < 64; i++ {
		k.AtCall(k.Now()+Time(i), cb, k, nil, 0)
		k.AtCall(k.Now()+Time(wheelSize+i), cb, k, nil, 0)
	}
	k.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		k.AtCall(k.Now()+1, cb, k, nil, 1)
		k.AtCall(k.Now()+2, cb, k, nil, 2)
		k.Step()
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("AtCall schedule/fire allocates %.1f per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		k.At(k.Now()+1, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("At schedule/fire with prebuilt closure allocates %.1f per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if !k.TryAdvance(k.Now() + 1) {
			t.Fatal("TryAdvance failed on empty queue")
		}
	})
	if allocs != 0 {
		t.Fatalf("TryAdvance allocates %.1f per op, want 0", allocs)
	}
	// Lap the wheel a thousand times. Each lap piles 24 events into one
	// bucket (a different one each lap) and one far event behind them,
	// then fires all 25: fewer events resident than the warm-up held, but
	// every bucket in turn gets a deep FIFO. Count every allocation rather
	// than an average per run, which rounds a few hundred down to 0.
	start := k.Now()
	if n := mallocs(func() {
		for lap := uint64(0); lap < 1000; lap++ {
			at := k.Now() + Time(1+lap*37%(wheelSize-1))
			for j := 0; j < 24; j++ {
				k.AtCall(at, cb, k, nil, 0)
			}
			k.AtCall(k.Now()+Time(wheelSize+lap*53%(2*wheelSize)), cb, k, nil, 0)
			for j := 0; j < 25; j++ {
				k.Step()
			}
		}
	}); n != 0 {
		t.Fatalf("lapping the wheel allocated %d times, want 0", n)
	}
	if laps := (k.Now() - start) / wheelSize; laps < 1000 {
		t.Fatalf("clock lapped the wheel %d times, want at least 1000", laps)
	}
}

// mallocs returns the number of heap allocations f makes.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func BenchmarkKernelScheduleFire(b *testing.B) {
	k := New(1)
	cb := Callback(func(_, _ any, _ uint64) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AtCall(k.Now()+1, cb, k, nil, 0)
		k.Step()
	}
}

// BenchmarkKernelHeapChurn keeps 256 events resident with deterministic
// times 1–97 cycles ahead: the wheel's near path under a deeper queue than a
// busy machine's (which holds 4–15 events, all under 128 cycles ahead).
func BenchmarkKernelHeapChurn(b *testing.B) {
	k := New(1)
	cb := Callback(func(_, _ any, _ uint64) {})
	for i := 0; i < 256; i++ {
		k.AtCall(k.Now()+Time(1+i%97), cb, k, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AtCall(k.Now()+Time(1+i%97), cb, k, nil, 0)
		k.Step()
	}
}

// BenchmarkKernelFarChurn is BenchmarkKernelHeapChurn with every event a
// wheel or more ahead, so every schedule and fire goes through the far heap.
func BenchmarkKernelFarChurn(b *testing.B) {
	k := New(1)
	cb := Callback(func(_, _ any, _ uint64) {})
	for i := 0; i < 256; i++ {
		k.AtCall(k.Now()+Time(wheelSize+i%97), cb, k, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AtCall(k.Now()+Time(wheelSize+i%97), cb, k, nil, 0)
		k.Step()
	}
}
