package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"tlrsim/internal/memsys"
)

// scanProbe is the frame walk Probe made before the tag rows: every frame of
// the line's set, then the victim cache, matched on State and Tag. It is the
// oracle the tag row is checked against.
func scanProbe(c *Cache, line memsys.Addr) *Line {
	line = line.Line()
	if r := c.rows[c.setIndex(line)]; r != 0 {
		set := c.frames[r-1]
		for i := range set {
			if set[i].State.Valid() && set[i].Tag == line {
				return &set[i]
			}
		}
	}
	for i := range c.victim {
		if c.victim[i].State.Valid() && c.victim[i].Tag == line {
			return &c.victim[i]
		}
	}
	return nil
}

// checkTagRows reports the first disagreement between the tag rows and the
// frames they describe, and between Probe and the frame-scan oracle for
// every line of the pool.
func checkTagRows(c *Cache, pool []memsys.Addr) error {
	if len(c.tags) != len(c.frames)*c.ways {
		return fmt.Errorf("%d tag words for %d slots of %d ways", len(c.tags), len(c.frames), c.ways)
	}
	slots := 0
	for set, r := range c.rows {
		if r == 0 {
			continue
		}
		slots++
		s := int(r - 1)
		for w, f := range c.frames[s] {
			if got, want := c.row(s)[w], tagWord(f.Tag, f.State); got != want {
				return fmt.Errorf("set %d way %d: tag word %#x, frame %v at %#x", set, w, got, f.State, uint64(f.Tag))
			}
			if f.State.Valid() && c.setIndex(f.Tag) != uint64(set) {
				return fmt.Errorf("line %#x in set %d", uint64(f.Tag), set)
			}
		}
	}
	if slots != len(c.frames) {
		return fmt.Errorf("%d sets hold slots, %d slots allocated", slots, len(c.frames))
	}
	for _, a := range pool {
		if got, want := c.Probe(a), scanProbe(c, a); got != want {
			return fmt.Errorf("Probe(%#x) = %p, frame scan %p", uint64(a), got, want)
		}
	}
	return nil
}

// TestPropertyTagRowMatchesFrames drives random Insert, Invalidate,
// speculative marking (which forces victim spills), ClearSpecBits, in-place
// state changes and Reset sequences through several geometries, and after
// every step checks that each tag row agrees with its frames and that
// Probe finds exactly what a full frame scan finds.
func TestPropertyTagRowMatchesFrames(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 512, Ways: 2, VictimEntries: 2},
		{SizeBytes: 256, Ways: 4, VictimEntries: 3},
		{SizeBytes: 256, Ways: 1, VictimEntries: 1},
		{SizeBytes: 2048, Ways: 2, VictimEntries: 0},
	}
	states := []State{Shared, Exclusive, Owned, Modified}
	var evictions, spills int
	for gi, g := range geoms {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(gi)))
			c := New(g)
			sets := int(c.setMask) + 1
			// Three times as many lines as frames in up to three sets, so
			// sets fill, evict and spill.
			k := min(sets, 3)
			pool := make([]memsys.Addr, 3*g.Ways*k)
			for i := range pool {
				pool[i] = memsys.Addr(((i/k)*sets + i%k) * memsys.LineBytes)
			}
			for step := 0; step < 400; step++ {
				a := pool[rng.Intn(len(pool))]
				var what string
				switch r := rng.Intn(100); {
				case r < 45:
					what = "insert"
					victims := c.VictimLen()
					_, ev, _ := c.Insert(a, states[rng.Intn(len(states))], memsys.LineData{uint64(step)})
					if ev != nil {
						evictions++
					}
					if c.VictimLen() > victims {
						spills++
					}
				case r < 60:
					what = "invalidate"
					c.Invalidate(a)
				case r < 80:
					what = "mark"
					if l := c.Probe(a); l != nil {
						if rng.Intn(2) == 0 {
							c.MarkSpecRead(l)
						} else {
							c.MarkSpecWritten(l)
						}
					}
				case r < 88:
					what = "clear"
					c.ClearSpecBits()
				case r < 97:
					what = "restate"
					if l := c.Probe(a); l != nil {
						l.State = states[rng.Intn(len(states))]
					}
				default:
					what = "reset"
					c.Reset()
				}
				if err := checkTagRows(c, pool); err != nil {
					t.Fatalf("%+v seed %d step %d (%s %#x): %v", g, seed, step, what, uint64(a), err)
				}
			}
		}
	}
	if evictions == 0 || spills == 0 {
		t.Fatalf("%d evictions and %d victim spills: the sequences never exercised both", evictions, spills)
	}
	t.Logf("%d evictions, %d victim spills", evictions, spills)
}

// TestLookupCountsVictimHits pins that Lookup, unlike Probe, counts a hit
// in the victim cache, and counts nothing for a main-array hit or a miss.
func TestLookupCountsVictimHits(t *testing.T) {
	c := small() // 2 ways, victim 2
	for i := 0; i < 3; i++ {
		f, _, ok := c.Insert(addrInSet(c, 0, i), Shared, memsys.LineData{})
		if !ok {
			t.Fatal("insert failed")
		}
		c.MarkSpecRead(f)
	}
	if c.VictimLen() != 1 {
		t.Fatalf("victim len %d, want 1", c.VictimLen())
	}
	victim := c.victim[0].Tag
	c.Probe(victim)
	c.Lookup(addrInSet(c, 0, 2))
	c.Lookup(addrInSet(c, 1, 0))
	if n := c.Stats().VictimHits; n != 0 {
		t.Fatalf("VictimHits = %d after a probe, a main hit and a miss", n)
	}
	if c.Lookup(victim) == nil || c.Stats().VictimHits != 1 {
		t.Fatalf("victim lookup: VictimHits = %d, want 1", c.Stats().VictimHits)
	}
}
