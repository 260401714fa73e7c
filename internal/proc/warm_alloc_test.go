package proc_test

import (
	"runtime"
	"testing"

	"tlrsim/internal/proc"
	"tlrsim/internal/workloads"
)

// warmRunAllocs is the objects one warm Reset+Run of a 16-CPU LinkedList
// allocates: only per-run set-up (thread coroutines, the workload's node
// table and validation) unless the op path itself allocates. The machine
// first runs the workload a few times, so every map and array has reached
// its steady size, and the count is the fewest of a dozen runs, each
// started right after a collection: the runtime now and then adds an
// object of its own (a coroutine's goroutine, say) to a run, more often
// when a collection or other test packages run alongside.
func warmRunAllocs(t *testing.T, scheme proc.Scheme, storeBuffer, ops int) uint64 {
	t.Helper()
	const warm, measured = 3, 12
	cfg := proc.BaselineConfig(16, scheme, 1)
	cfg.Coherence.StoreBufferEntries = storeBuffer
	m := proc.NewMachine(cfg)
	var ms runtime.MemStats
	fewest := ^uint64(0)
	for i := 0; i < warm+measured; i++ {
		if i >= warm {
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := m.Reset(&cfg); err != nil {
			t.Fatal(err)
		}
		if err := workloads.RunOn(m, &workloads.LinkedList{TotalOps: ops}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if n := ms.Mallocs - before; i >= warm && n < fewest {
			fewest = n
		}
	}
	return fewest
}

// A warm run allocates nothing per operation: quadrupling the work of a
// 16-CPU run leaves its allocation count unchanged, for TLR (elision,
// deferral, commit and restart) and for BASE with the TSO store buffer on
// (spin waits, LL/SC, buffered stores and fences).
func TestWarmMachineRunAllocFree(t *testing.T) {
	for _, c := range []struct {
		scheme      proc.Scheme
		storeBuffer int
	}{{proc.TLR, 0}, {proc.Base, 8}} {
		small, large := warmRunAllocs(t, c.scheme, c.storeBuffer, 256), warmRunAllocs(t, c.scheme, c.storeBuffer, 1024)
		if small != large {
			t.Errorf("%v (store buffer %d): a warm run allocates %d objects at 256 ops and %d at 1024, want equal",
				c.scheme, c.storeBuffer, small, large)
		}
	}
}
