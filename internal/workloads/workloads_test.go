package workloads

import (
	"testing"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/coherence"
	"tlrsim/internal/core"
	"tlrsim/internal/proc"
)

func cfg(procs int, scheme proc.Scheme) proc.Config {
	return proc.Config{
		Procs:  procs,
		Scheme: scheme,
		Seed:   7,
		Coherence: coherence.Config{
			Cache: cache.Config{SizeBytes: 131072, Ways: 4, VictimEntries: 16},
			Bus:   bus.Config{SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2, MaxOutstanding: 120},
			L2Lat: 12, MemLat: 70, WriteBufferLines: 64,
		},
		UseRMWPredictor: true,
		EnableChecker:   true,
		MaxEvents:       80_000_000,
	}
}

var testSchemes = []proc.Scheme{proc.Base, proc.SLE, proc.TLR, proc.TLRStrictTS, proc.MCS}

// small builds the scaled-down workload set used for per-scheme validation.
func small() []Workload {
	return []Workload{
		&MultipleCounter{TotalOps: 160},
		&SingleCounter{TotalOps: 120},
		&LinkedList{TotalOps: 80},
		&Barnes{Bodies: 48, Levels: 3, Branch: 4, Work: 10},
		&Cholesky{Tasks: 36, Cols: 6, BigCols: 1, ColWords: 16, Work: 20},
		&MP3D{Steps: 120, Cells: 64, Work: 10},
		&MP3D{Steps: 120, Cells: 64, Work: 10, Coarse: true},
		&Radiosity{Tasks: 60, Work: 30},
		&WaterNsq{Mols: 80, Work: 20},
		&OceanCont{Sweeps: 24, Work: 200},
		&Raytrace{Rays: 64, ChunkSize: 4, Work: 15},
		&ReadHeavy{Rounds: 40},
		&ReadSet{Txns: 24, LinesPerTxn: 4},
		&RandomMix{Iters: 24, Seed: 11},
	}
}

// TestAllWorkloadsAllSchemes is the system-wide serializability oracle:
// every workload's sequential post-condition must hold under every scheme.
func TestAllWorkloadsAllSchemes(t *testing.T) {
	for _, scheme := range testSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			for _, w := range small() {
				t.Run(w.Name(), func(t *testing.T) {
					if _, err := Run(cfg(4, scheme), w); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestWorkloadsAt16Procs runs the Figure 11 processor count on a spread of
// workloads under TLR.
func TestWorkloadsAt16Procs(t *testing.T) {
	for _, w := range []Workload{
		&MultipleCounter{TotalOps: 320},
		&SingleCounter{TotalOps: 160},
		&LinkedList{TotalOps: 96},
		&Radiosity{Tasks: 96, Work: 30},
	} {
		t.Run(w.Name(), func(t *testing.T) {
			if _, err := Run(cfg(16, proc.TLR), w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMultipleCounterNoTLRConflicts: the defining property of the
// coarse-grain/no-conflicts microbenchmark — disjoint data means zero
// conflict restarts under TLR.
func TestMultipleCounterNoTLRConflicts(t *testing.T) {
	w := &MultipleCounter{TotalOps: 160}
	m, err := Run(cfg(4, proc.TLR), w)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.CPUs {
		if n := c.Engine().Stats().TotalAborts(); n != 0 {
			t.Fatalf("P%d aborted %d times on disjoint data", c.ID(), n)
		}
	}
}

// TestSingleCounterTLRNeverAcquires: under pure data contention TLR stays
// lock-free (§6.2: "no explicit lock requests are made under TLR").
func TestSingleCounterTLRNeverAcquires(t *testing.T) {
	w := &SingleCounter{TotalOps: 120}
	m, err := Run(cfg(4, proc.TLR), w)
	if err != nil {
		t.Fatal(err)
	}
	var fallbacks uint64
	for _, c := range m.CPUs {
		fallbacks += c.Engine().Stats().Fallbacks
	}
	if fallbacks != 0 {
		t.Fatalf("TLR acquired the lock %d times", fallbacks)
	}
}

// TestCholeskyResourceFallbacks: the oversized columns must trip the write
// buffer and fall back to locking (§6.3's 3.7% resource-limited critical
// sections), and the run stays correct.
func TestCholeskyResourceFallbacks(t *testing.T) {
	c := cfg(2, proc.TLR)
	c.Coherence.WriteBufferLines = 8
	w := &Cholesky{Tasks: 12, Cols: 4, BigCols: 2, ColWords: 16, Work: 10}
	m, err := Run(c, w)
	if err != nil {
		t.Fatal(err)
	}
	var res uint64
	for _, cpu := range m.CPUs {
		res += cpu.Engine().Stats().AbortsFor(core.ReasonResource)
	}
	if res == 0 {
		t.Fatal("big columns should exhaust the write buffer")
	}
}

// TestLinkedListConservesNodes across a longer, contended run.
func TestLinkedListConservation(t *testing.T) {
	for _, scheme := range []proc.Scheme{proc.Base, proc.TLR} {
		w := &LinkedList{TotalOps: 200, InitialNodes: 6}
		if _, err := Run(cfg(8, scheme), w); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
	}
}

// TestDeterministicWorkload: identical seeds give identical cycle counts.
func TestDeterministicWorkload(t *testing.T) {
	run := func() uint64 {
		m, err := Run(cfg(4, proc.TLR), &SingleCounter{TotalOps: 80})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(m.Cycles())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// TestNACKRetentionWorkloads: the NACK-based retention ablation completes
// the contended microbenchmarks correctly.
func TestNACKRetentionWorkloads(t *testing.T) {
	c := cfg(4, proc.TLR)
	c.Policy.RetentionNACK = true
	for _, w := range []Workload{
		&SingleCounter{TotalOps: 120},
		&LinkedList{TotalOps: 60},
		&MultipleCounter{TotalOps: 120},
	} {
		if _, err := Run(c, w); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
	}
}

// TestGuaranteedFootprint is the §4 worked example: with a 4-way cache and
// a 16-entry victim cache, "the programmer can be sure any transaction
// accessing 20 cache lines or less is ensured a lock-free execution" — and
// one more line breaks the guarantee.
func TestGuaranteedFootprint(t *testing.T) {
	run := func(lines int) uint64 {
		c := cfg(2, proc.TLR)
		m, err := Run(c, &ReadSet{Txns: 16, LinesPerTxn: lines})
		if err != nil {
			t.Fatalf("lines=%d: %v", lines, err)
		}
		var fb uint64
		for _, cpu := range m.CPUs {
			fb += cpu.Engine().Stats().Fallbacks
		}
		return fb
	}
	if fb := run(20); fb != 0 {
		t.Errorf("20 same-set lines fell back %d times despite the ways+victim guarantee", fb)
	}
	if fb := run(22); fb == 0 {
		t.Error("22 same-set lines should exceed the guaranteed footprint")
	}
}

// TestTimestampRolloverPreservesCorrectness: 6-bit hardware timestamps wrap
// many times during a contended run; the half-window comparison keeps
// conflict resolution fair and the result exact (§2.1.2).
func TestTimestampRolloverPreservesCorrectness(t *testing.T) {
	c := cfg(4, proc.TLR)
	c.Policy.TimestampBits = 6 // wraps at 64; each CPU commits ~100 times
	w := &SingleCounter{TotalOps: 400}
	m, err := Run(c, w)
	if err != nil {
		t.Fatal(err)
	}
	var fallbacks uint64
	for _, cpu := range m.CPUs {
		fallbacks += cpu.Engine().Stats().Fallbacks
	}
	if fallbacks != 0 {
		t.Fatalf("rollover caused %d lock acquisitions", fallbacks)
	}
}

// TestRandomMixStress: randomly generated lock-disciplined programs across
// every scheme and several generation seeds, with the functional checker
// validating every commit and the replay oracle validating the final state.
func TestRandomMixStress(t *testing.T) {
	for _, scheme := range testSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				w := &RandomMix{Iters: 40, Seed: seed}
				if _, err := Run(cfg(4, scheme), w); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestRandomMixAbortOnUntimestamped: the same stress under the §2.2
// abort-on-data-race policy (plain reads restart transactions instead of
// being deferred).
func TestRandomMixAbortOnUntimestamped(t *testing.T) {
	c := cfg(4, proc.TLR)
	c.Policy.AbortOnUntimestamped = true
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := Run(c, &RandomMix{Iters: 40, Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomMixNACK: the stress under NACK retention.
func TestRandomMixNACK(t *testing.T) {
	c := cfg(4, proc.TLR)
	c.Policy.RetentionNACK = true
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := Run(c, &RandomMix{Iters: 40, Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomMixWide: more processors, more locks, more iterations, one seed.
func TestRandomMixWide(t *testing.T) {
	w := &RandomMix{Iters: 60, Words: 32, Locks: 8, Seed: 99}
	if _, err := Run(cfg(8, proc.TLR), w); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBufferAllSchemes: the TSO store buffer on (Table 2's actual BASE
// configuration) across every scheme, validated by the checker and oracles.
func TestStoreBufferAllSchemes(t *testing.T) {
	for _, scheme := range testSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			c := cfg(4, scheme)
			c.Coherence.StoreBufferEntries = 64
			for _, w := range []Workload{
				&SingleCounter{TotalOps: 120},
				&LinkedList{TotalOps: 60},
				&RandomMix{Iters: 40, Seed: 2},
			} {
				if _, err := Run(c, w); err != nil {
					t.Fatalf("%s: %v", w.Name(), err)
				}
			}
		})
	}
}

// TestSnoopFilterHostWork pins the snoop filter's host work on one small
// fixed machine, Figure 9's single counter under BASE at 16 CPUs: the bus
// transactions, the controller Snoop calls and the SnoopOwner calls. A
// broadcast makes 16 of each per polled transaction. The release burst of
// test&test&set spinning is where a filter pays: a change that quietly
// re-broadcasts, or stops trimming a set, moves these numbers although every
// simulated result stays the same.
func TestSnoopFilterHostWork(t *testing.T) {
	m, err := Run(proc.BaselineConfig(16, proc.Base, 2002), &SingleCounter{TotalOps: 256})
	if err != nil {
		t.Fatal(err)
	}
	bs := m.Sys.Bus.Stats()
	var txns uint64
	for _, n := range bs.Txns {
		txns += n
	}
	t.Logf("%d transactions, %.3f Snoop calls and %.3f owner polls per transaction",
		txns, float64(bs.SnoopCalls)/float64(txns), float64(bs.OwnerPolls)/float64(txns))
	got := [3]uint64{txns, bs.SnoopCalls, bs.OwnerPolls}
	if want := [3]uint64{10578, 23690, 7949}; got != want {
		t.Fatalf("transactions, Snoop calls, owner polls = %v, want %v", got, want)
	}
}
