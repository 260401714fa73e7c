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
			h.add(h.at(line), i%70, true)
			h.add(h.at(line), 69, false)
			*h.reads(h.at(line))++
			h.drop(line, i%70, false, false)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, func() { h.reset(); run() }); allocs != 0 {
		t.Fatalf("reset + rerun allocates %.1f objects, want 0", allocs)
	}
	holders, owners := h.Holders(0)
	if len(holders) != 2 || holders[0] != 0 || holders[1] != 1<<(69-64) {
		t.Fatalf("holders of line 0 = %x, want [0 %x]", holders, uint64(1)<<(69-64))
	}
	if len(owners) != 2 || owners[0] != 0 || owners[1] != 0 {
		t.Fatalf("owners of line 0 = %x, want [0 0]", owners)
	}
	if n := *h.reads(h.at(0)); n != 1 {
		t.Fatalf("read count of line 0 = %d, want 1", n)
	}
	if holders, owners := h.Holders(memsys.Addr(1 << 30)); holders != nil || owners != nil {
		t.Fatal("an untouched line must have no holders")
	}
}

// TestHolderSetDropKeepsEachSet: drop clears the holder and owner-candidate
// bits independently, and each word of a two-word mask separately.
func TestHolderSetDropKeepsEachSet(t *testing.T) {
	h := newHolderSet(70)
	const line = memsys.Addr(0x40)
	h.add(h.at(line), 3, true)
	h.add(h.at(line), 66, true)
	h.drop(line, 3, true, false)
	if !h.has(line, 3, false) || h.has(line, 3, true) {
		t.Fatal("drop(holder kept, owner cleared) must keep only P3's holder bit")
	}
	h.drop(line, 66, false, true)
	if h.has(line, 66, false) || !h.has(line, 66, true) {
		t.Fatal("drop(holder cleared, owner kept) must keep only P66's owner bit")
	}
}
