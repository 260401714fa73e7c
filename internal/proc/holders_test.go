package proc

import (
	"fmt"
	"testing"

	"tlrsim/internal/fault"
)

// TestHolderSetCoversState pins the exactness of the bus's snoop filter
// (System.CheckHolders) after every kernel event: every valid cache line,
// pending write-back and ordered request that has not handed off has its
// controller's holder bit; every owned line, pending write-back and pending
// owner its owner-candidate bit; and every outstanding MSHR names its
// line's slot with a read-count snapshot no later than the count. A queued
// request needs no bit: it takes one at its own order point. A missing bit
// would make the bus skip a snoop that mattered. The runs
// cover BASE, SLE and TLR with the default policy, NACK retention, the
// TSO store buffer and every chaos fault config, on a small cache that
// forces evictions, victim spills and write-backs; one TLR machine has
// more than 64 CPUs, so its masks span two words.
func TestHolderSetCoversState(t *testing.T) {
	type variant struct {
		name string
		mod  func(*Config)
	}
	variants := []variant{
		{"default", func(*Config) {}},
		{"nack", func(c *Config) {
			c.Policy.RetentionNACK = true
		}},
		{"storebuf", func(c *Config) { c.Coherence.StoreBufferEntries = 4 }},
	}
	for _, spec := range chaosSpecs {
		fs, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		variants = append(variants, variant{spec, func(c *Config) { c.Faults = fs }})
	}
	for _, v := range variants {
		for _, scheme := range []Scheme{Base, SLE, TLR} {
			t.Run(v.name+"/"+scheme.String(), func(t *testing.T) {
				holderRun(t, 4, scheme, v.mod, 30)
			})
		}
	}
	t.Run("procs=66/TLR", func(t *testing.T) {
		holderRun(t, 66, TLR, func(*Config) {}, 3)
	})
}

// holderRun runs a mixed workload on a small-cache machine one kernel event
// at a time and checks the holder set after each event. Each thread runs
// iters critical sections over a shared counter and a pool of lines larger
// than its cache (each section reads six pool lines, enough to spill into
// the victim cache), with plain loads and stores in between.
func holderRun(t *testing.T, procs int, scheme Scheme, mod func(*Config), iters int) {
	t.Helper()
	c := cfg(procs, scheme)
	c.Coherence.Cache.SizeBytes = 1024 // 4 sets of 4 ways
	c.Coherence.Cache.VictimEntries = 4
	c.StallCycles = 2_000_000
	mod(&c)
	m := NewMachine(c)
	l := m.NewLock()
	ctr := m.Alloc.PaddedWord()
	pool := m.Alloc.PaddedWords(48)
	progs := make([]func(*TC), procs)
	for i := range progs {
		progs[i] = func(tc *TC) {
			for n := 0; n < iters; n++ {
				tc.Critical(l, func() {
					v := tc.LoadSite(ctr, 1)
					var sum uint64
					for j := 0; j < 6; j++ {
						sum += tc.Load(pool[tc.Rand().Intn(len(pool))])
					}
					tc.Store(pool[tc.Rand().Intn(len(pool))], sum)
					tc.Store(ctr, v+1)
				})
				for j := 0; j < 4; j++ {
					a := pool[tc.Rand().Intn(len(pool))]
					if tc.Rand().Intn(2) == 0 {
						tc.Store(a, uint64(n))
					} else {
						tc.Load(a)
					}
				}
				tc.Compute(uint64(tc.Rand().Intn(40)))
			}
		}
	}
	if err := runStepped(m, progs, m.Sys.CheckHolders); err != nil {
		t.Fatal(err)
	}
	if v := m.Sys.ArchWord(ctr); v != uint64(procs*iters) {
		t.Fatalf("counter = %d, want %d", v, procs*iters)
	}
	if err := m.Sys.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckerErr(); err != nil {
		t.Fatal(err)
	}
}

// runStepped runs progs on m as Machine.Run does, including dry-queue
// deadlock recovery and the final drain, but steps the kernel itself so
// check can run after every event.
func runStepped(m *Machine, progs []func(*TC), check func() error) error {
	srcs := make([]opSource, len(progs))
	for i, p := range progs {
		srcs[i] = newTC(m.CPUs[i], p)
	}
	m.startThreads(srcs)
	defer m.stopThreads()
	step := func() (bool, error) {
		if !m.K.Step() {
			return false, nil
		}
		if err := check(); err != nil {
			return true, fmt.Errorf("after event %d at cycle %d: %w", m.K.Fired(), m.K.Now(), err)
		}
		return true, nil
	}
	for m.live > 0 {
		if m.K.Fired() >= m.cfg.MaxEvents {
			return m.stallError(StallEventBudget)
		}
		ok, err := step()
		if err != nil {
			return err
		}
		if !ok && !m.recoverDeadlock() {
			return m.stallError(StallDeadlock)
		}
	}
	for {
		ok, err := step()
		if err != nil || !ok {
			return err
		}
	}
}
