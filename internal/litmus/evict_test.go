package litmus

import (
	"testing"

	"tlrsim/internal/cache"
	"tlrsim/internal/proc"
)

// TestEvictingGeometryKeepsCoherence runs a 3-CPU program on a one-set,
// two-way cache with no victim cache. The lock word and the two locations
// cannot all fit, so write-backs, supply from a pending write-back and
// re-reads of evicted lines all happen. Every run must end coherent (single
// writer, one owner, holder set exact) with an outcome the lock-based
// program admits. Supplying a GetS from a pending write-back as Exclusive,
// beside live Shared copies, fails here under BASE at seed 6.
func TestEvictingGeometryKeepsCoherence(t *testing.T) {
	p := Program{NumLocs: 2, Threads: []Thread{
		{Ops: []Op{{Kind: Load, Loc: 0}, {Kind: Load, Loc: 0}}},
		{Ops: []Op{{Kind: Load, Loc: 1}, {Kind: Load, Loc: 0}}},
		{Ops: []Op{{Kind: Store, Loc: 0}, {Kind: Load, Loc: 1}}, CritLo: 0, CritHi: 2},
	}}
	if got, want := p.String(), "P0: Lx Lx | P1: Ly Lx | P2: [Sx Ly]"; got != want {
		t.Fatalf("program = %q, want %q", got, want)
	}
	var r Runner
	var writebacks uint64
	for _, scheme := range []proc.Scheme{proc.Base, proc.SLE, proc.TLR} {
		cfg := machineConfig(3, scheme, &DefaultPerturb)
		cfg.Coherence.Cache = cache.Config{SizeBytes: 128, Ways: 2}
		for seed := int64(1); seed <= 16; seed++ {
			cfg.Seed = seed
			m := proc.NewMachine(cfg)
			if err := r.runOn(m, p); err != nil {
				t.Fatalf("%v seed %d: %v", scheme, seed, err)
			}
			if err := m.Sys.CheckCoherence(); err != nil {
				t.Fatalf("%v seed %d: %v", scheme, seed, err)
			}
			if escaped := CheckOutcomes(p, []string{string(r.out)}); len(escaped) != 0 {
				t.Fatalf("%v seed %d: outcome %q not in locked set %v", scheme, seed, escaped[0], ReferenceOutcomes(p))
			}
			for _, c := range m.Sys.Ctrls {
				writebacks += c.Stats().Writebacks
			}
		}
	}
	if writebacks == 0 {
		t.Fatal("no run wrote a line back: the geometry does not evict")
	}
}
