package coherence

import (
	"testing"

	"tlrsim/internal/memsys"
)

// TestHolderSetReuseAllocFree: once a run has sized the holder set, reset
// and the same traffic again allocate nothing — slots and slab capacity
// survive reset, and there is no object per line.
func TestHolderSetReuseAllocFree(t *testing.T) {
	h := newHolderSet(70)
	run := func() {
		for i := 0; i < 512; i++ {
			line := memsys.Addr(i * memsys.LineBytes)
			h.add(line, i%70)
			h.add(line, 69)
			h.remove(line, i%70)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, func() { h.reset(); run() }); allocs != 0 {
		t.Fatalf("reset + rerun allocates %.1f objects, want 0", allocs)
	}
	if got := h.Holders(0); len(got) != 2 || got[0] != 0 || got[1] != 1<<(69-64) {
		t.Fatalf("Holders(0) = %x, want [0 %x]", got, uint64(1)<<(69-64))
	}
	if h.Holders(memsys.Addr(1<<30)) != nil {
		t.Fatal("an untouched line must have no holders")
	}
}
