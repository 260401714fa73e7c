package cache

import (
	"testing"
	"testing/quick"

	"tlrsim/internal/memsys"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B = 512B; victim of 2.
	return New(Config{SizeBytes: 512, Ways: 2, VictimEntries: 2})
}

// addrInSet returns the base address of the i-th distinct line mapping to set.
func addrInSet(c *Cache, set, i int) memsys.Addr {
	return memsys.Addr((i*(int(c.setMask)+1) + set) * memsys.LineBytes)
}

func TestStateProperties(t *testing.T) {
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid wrong")
	}
	if !Modified.Writable() || !Exclusive.Writable() || Owned.Writable() || Shared.Writable() {
		t.Fatal("Writable wrong")
	}
	if !Modified.IsOwner() || !Exclusive.IsOwner() || !Owned.IsOwner() || Shared.IsOwner() {
		t.Fatal("IsOwner wrong")
	}
	if !Modified.Dirty() || !Owned.Dirty() || Exclusive.Dirty() || Shared.Dirty() {
		t.Fatal("Dirty wrong")
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(0x40) != nil {
		t.Fatal("empty cache should miss")
	}
	var d memsys.LineData
	d[1] = 5
	f, ev, ok := c.Insert(0x40, Shared, d)
	if !ok || ev != nil || f == nil {
		t.Fatal("insert into empty cache failed")
	}
	got := c.Lookup(0x44) // any addr in line
	if got == nil || got.Data[1] != 5 || got.State != Shared {
		t.Fatal("lookup after insert failed")
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := small()
	c.Insert(0x40, Shared, memsys.LineData{})
	var d memsys.LineData
	d[0] = 9
	f, ev, ok := c.Insert(0x40, Modified, d)
	if !ok || ev != nil {
		t.Fatal("re-insert should update in place")
	}
	if f.State != Modified || f.Data[0] != 9 {
		t.Fatal("in-place update lost state or data")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	a0, a1, a2 := addrInSet(c, 0, 0), addrInSet(c, 0, 1), addrInSet(c, 0, 2)
	c.Insert(a0, Shared, memsys.LineData{})
	c.Insert(a1, Shared, memsys.LineData{})
	c.Touch(c.Lookup(a0)) // a0 now MRU; a1 is LRU
	_, ev, ok := c.Insert(a2, Shared, memsys.LineData{})
	if !ok || ev == nil || ev.Tag != a1 {
		t.Fatalf("expected eviction of %s, got %+v", a1, ev)
	}
	if c.Lookup(a1) != nil || c.Lookup(a0) == nil || c.Lookup(a2) == nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := small()
	a0, a1, a2 := addrInSet(c, 1, 0), addrInSet(c, 1, 1), addrInSet(c, 1, 2)
	var d memsys.LineData
	d[7] = 0xdead
	c.Insert(a0, Modified, d)
	c.Insert(a1, Shared, memsys.LineData{})
	c.Touch(c.Lookup(a1))
	_, ev, _ := c.Insert(a2, Shared, memsys.LineData{})
	if ev == nil || ev.Tag != a0 || !ev.State.Dirty() || ev.Data[7] != 0xdead {
		t.Fatalf("dirty eviction mishandled: %+v", ev)
	}
	if c.Stats().WritebackEvicts != 1 {
		t.Fatal("writeback eviction not counted")
	}
}

func TestSpeculativeLinesPinned(t *testing.T) {
	c := small()
	a0, a1, a2 := addrInSet(c, 0, 0), addrInSet(c, 0, 1), addrInSet(c, 0, 2)
	f0, _, _ := c.Insert(a0, Modified, memsys.LineData{})
	f0.SpecWritten = true
	c.Insert(a1, Shared, memsys.LineData{})
	// a0 is LRU but speculative; a1 must be chosen instead.
	_, ev, ok := c.Insert(a2, Shared, memsys.LineData{})
	if !ok || ev == nil || ev.Tag != a1 {
		t.Fatalf("speculative line was not pinned: evicted %+v", ev)
	}
}

func TestSpecOverflowToVictimThenFail(t *testing.T) {
	c := small() // 2 ways, victim 2
	mk := func(i int) *Line {
		f, _, ok := c.Insert(addrInSet(c, 0, i), Modified, memsys.LineData{})
		if !ok {
			t.Fatalf("insert %d failed prematurely (victim len %d)", i, c.VictimLen())
		}
		f.SpecWritten = true
		return f
	}
	mk(0)
	mk(1)
	mk(2) // displaces a spec line into victim
	if c.VictimLen() != 1 {
		t.Fatalf("victim len = %d, want 1", c.VictimLen())
	}
	mk(3) // second spec displacement
	if c.VictimLen() != 2 {
		t.Fatalf("victim len = %d, want 2", c.VictimLen())
	}
	// All four spec lines still visible.
	for i := 0; i < 4; i++ {
		if c.Lookup(addrInSet(c, 0, i)) == nil {
			t.Fatalf("spec line %d lost after victim displacement", i)
		}
	}
	// Fifth insert cannot displace anything: resource overflow.
	_, _, ok := c.Insert(addrInSet(c, 0, 4), Modified, memsys.LineData{})
	if ok {
		t.Fatal("expected speculative-footprint overflow")
	}
	if c.Stats().SpecOverflowEvts != 1 {
		t.Fatal("overflow not counted")
	}
}

func TestGuaranteedSpecFootprint(t *testing.T) {
	// §4's worked example: with a v-entry victim cache and a w-way set, any
	// transaction touching up to (ways + victim) lines in one set is safe.
	c := New(Config{SizeBytes: 4096, Ways: 4, VictimEntries: 16})
	for i := 0; i < 4+16; i++ {
		f, _, ok := c.Insert(addrInSet(c, 0, i), Modified, memsys.LineData{})
		if !ok {
			t.Fatalf("line %d of guaranteed footprint failed", i)
		}
		f.SpecWritten = true
	}
	if _, _, ok := c.Insert(addrInSet(c, 0, 20), Modified, memsys.LineData{}); ok {
		t.Fatal("line beyond guaranteed footprint should fail")
	}
}

func TestInvalidateMainAndVictim(t *testing.T) {
	c := small()
	a := addrInSet(c, 2, 0)
	c.Insert(a, Exclusive, memsys.LineData{})
	c.Invalidate(a)
	if c.Lookup(a) != nil {
		t.Fatal("invalidate from main array failed")
	}
	// Force a line into the victim cache.
	for i := 0; i < 3; i++ {
		f, _, _ := c.Insert(addrInSet(c, 0, i), Modified, memsys.LineData{})
		f.SpecWritten = true
	}
	if c.VictimLen() != 1 {
		t.Fatalf("victim len %d", c.VictimLen())
	}
	victimTag := addrInSet(c, 0, 0) // LRU spec line was moved
	c.Invalidate(victimTag)
	if c.Lookup(victimTag) != nil {
		t.Fatal("invalidate from victim cache failed")
	}
	if c.VictimLen() != 0 {
		t.Fatal("victim not compacted")
	}
}

func TestClearSpecBitsAndSpecLines(t *testing.T) {
	c := small()
	f0, _, _ := c.Insert(0x40, Modified, memsys.LineData{})
	c.MarkSpecWritten(f0)
	f1, _, _ := c.Insert(0x80, Shared, memsys.LineData{})
	c.MarkSpecRead(f1)
	c.Insert(0xc0, Shared, memsys.LineData{})
	lines := c.SpecLines()
	if len(lines) != 2 || lines[0] != 0x40 || lines[1] != 0x80 {
		t.Fatalf("SpecLines = %v", lines)
	}
	c.ClearSpecBits()
	if len(c.SpecLines()) != 0 {
		t.Fatal("spec bits survived ClearSpecBits")
	}
}

// ClearSpecBits tracks touched lines by address, so it must still find a
// spec line whose frame was relocated into the victim cache after marking.
func TestClearSpecBitsAfterVictimMove(t *testing.T) {
	c := small() // 2 ways, victim 2
	for i := 0; i < 3; i++ {
		f, _, ok := c.Insert(addrInSet(c, 0, i), Modified, memsys.LineData{})
		if !ok {
			t.Fatalf("insert %d failed", i)
		}
		c.MarkSpecWritten(f)
	}
	if c.VictimLen() != 1 {
		t.Fatalf("victim len %d, want 1", c.VictimLen())
	}
	if got := len(c.SpecLines()); got != 3 {
		t.Fatalf("SpecLines = %d, want 3", got)
	}
	c.ClearSpecBits()
	if got := len(c.SpecLines()); got != 0 {
		t.Fatalf("spec bits survived victim move: %d lines still marked", got)
	}
	// Re-marking after a clear must re-register the address.
	f := c.Probe(addrInSet(c, 0, 1))
	c.MarkSpecRead(f)
	c.ClearSpecBits()
	if len(c.SpecLines()) != 0 {
		t.Fatal("re-marked line not cleared")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets must panic")
		}
	}()
	New(Config{SizeBytes: 192, Ways: 1})
}

// Property: the cache never holds two frames for the same tag, and Lookup
// always returns the frame that Insert returned.
func TestPropertyNoDuplicateTags(t *testing.T) {
	f := func(ops []uint8) bool {
		c := small()
		for _, op := range ops {
			a := memsys.Addr(op%32) * memsys.LineBytes
			if op&0x80 != 0 {
				c.Invalidate(a)
			} else {
				c.Insert(a, Shared, memsys.LineData{})
			}
			// Count frames per tag.
			count := map[memsys.Addr]int{}
			c.ForEachValid(func(l *Line) { count[l.Tag]++ })
			for _, n := range count {
				if n != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
