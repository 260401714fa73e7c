package runner

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/coherence"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

func testConfig(procs int, seed int64) proc.Config {
	return proc.Config{
		Procs:  procs,
		Scheme: proc.TLR,
		Seed:   seed,
		Coherence: coherence.Config{
			Cache: cache.Config{SizeBytes: 32768, Ways: 4, VictimEntries: 16},
			Bus:   bus.Config{SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2},
			L2Lat: 12, MemLat: 70, WriteBufferLines: 64,
		},
		RestartPenalty:  10,
		SpinRecheck:     2,
		UseRMWPredictor: true,
		RMWEntries:      128,
		ElisionEntries:  64,
		MaxEvents:       200_000_000,
		EnableChecker:   true,
	}
}

func counterJob(label string, procs, ops int) Job {
	return Job{
		Label:  label,
		Config: testConfig(procs, 7),
		Build:  func() workloads.Workload { return &workloads.SingleCounter{TotalOps: ops} },
	}
}

// Results must come back in job order with the same values at any worker
// count: the determinism contract the harness reports rely on.
func TestRunOrderAndDeterminism(t *testing.T) {
	jobs := []Job{
		counterJob("a", 2, 64),
		counterJob("b", 4, 64),
		counterJob("c", 2, 128),
		counterJob("d", 4, 128),
	}
	seq, err := (&Pool{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 4; workers++ {
		par, err := (&Pool{Workers: workers}).Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Cycles != seq[i].Cycles || par[i].Procs != seq[i].Procs {
				t.Errorf("workers=%d job %d: cycles=%d procs=%d, want cycles=%d procs=%d",
					workers, i, par[i].Cycles, par[i].Procs, seq[i].Cycles, seq[i].Procs)
			}
		}
	}
}

// badWorkload fails validation so the pool observes an error.
type badWorkload struct{ workloads.SingleCounter }

func (w *badWorkload) Name() string { return "bad" }
func (w *badWorkload) Validate(m *proc.Machine) error {
	return &validationError{}
}

type validationError struct{}

func (*validationError) Error() string { return "forced failure" }

// The earliest-indexed failure is reported and its label prefixes the
// error, regardless of worker count.
func TestFirstErrorWins(t *testing.T) {
	mk := func() []Job {
		return []Job{
			counterJob("ok-0", 2, 32),
			{
				Label:  "bad-1",
				Config: testConfig(2, 7),
				Build:  func() workloads.Workload { return &badWorkload{workloads.SingleCounter{TotalOps: 32}} },
			},
			{
				Label:  "bad-2",
				Config: testConfig(2, 7),
				Build:  func() workloads.Workload { return &badWorkload{workloads.SingleCounter{TotalOps: 32}} },
			},
			counterJob("ok-3", 2, 32),
		}
	}
	for _, workers := range []int{1, 2, 4} {
		_, err := (&Pool{Workers: workers}).Run(mk())
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if !strings.Contains(err.Error(), "bad-1") {
			t.Errorf("workers=%d: error %q should name the earliest failed job bad-1", workers, err)
		}
	}
}

// Progress fires exactly once per successful job, with a monotonically
// increasing done count reaching the total.
func TestProgress(t *testing.T) {
	jobs := []Job{
		counterJob("a", 2, 32),
		counterJob("b", 2, 64),
		counterJob("c", 4, 32),
	}
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		var dones []int
		labels := map[string]bool{}
		pool := &Pool{Workers: workers, Progress: func(done, total int, label string, run *stats.Run) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(jobs) {
				t.Errorf("total = %d, want %d", total, len(jobs))
			}
			if run == nil || run.Cycles == 0 {
				t.Errorf("progress for %s carries no run", label)
			}
			dones = append(dones, done)
			labels[label] = true
		}}
		if _, err := pool.Run(jobs); err != nil {
			t.Fatal(err)
		}
		if len(dones) != len(jobs) || len(labels) != len(jobs) {
			t.Fatalf("workers=%d: %d progress calls over %d labels, want %d", workers, len(dones), len(labels), len(jobs))
		}
		for i, d := range dones {
			if d != i+1 {
				t.Errorf("workers=%d: done sequence %v not monotonic", workers, dones)
				break
			}
		}
	}
}

// Zero workers means GOMAXPROCS; zero jobs means an empty result.
func TestEdgeCases(t *testing.T) {
	res, err := (&Pool{}).Run(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: res=%v err=%v", res, err)
	}
	res, err = (&Pool{Workers: 16}).Run([]Job{counterJob("solo", 2, 32)})
	if err != nil || len(res) != 1 || res[0] == nil {
		t.Fatalf("more workers than jobs: res=%v err=%v", res, err)
	}
}

// TestMachinesReuseAllocFree pins the cache's own cost: once its shapes are
// warm, an Acquire (an exact Reset) plus a Release allocates nothing, and
// each shape gets back its own machine. A shape keeps its slot while its
// machine is out, so Release never grows the cache.
func TestMachinesReuseAllocFree(t *testing.T) {
	cfgs := []proc.Config{testConfig(2, 7), testConfig(4, 7)}
	c := NewMachines(false)
	var first []*proc.Machine
	for _, cfg := range cfgs {
		m := c.Acquire(&cfg)
		first = append(first, m)
		c.Release(m)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, cfg := range cfgs {
			m := c.Acquire(&cfg)
			if m != first[i] {
				t.Fatal("warm Acquire constructed a new machine instead of reusing the cached one")
			}
			c.Release(m)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Acquire+Release allocates %.1f objects per cycle, want 0", allocs)
	}
	if len(c.machines) != len(cfgs) {
		t.Errorf("cache holds %d slots for %d shapes", len(c.machines), len(cfgs))
	}
}

// An acquired machine that is never released (its run errored) leaves the
// cache, and a cold cache never reuses.
func TestMachinesDropAndCold(t *testing.T) {
	cfg := testConfig(2, 7)
	c := NewMachines(false)
	dropped := c.Acquire(&cfg)
	if m := c.Acquire(&cfg); m == dropped {
		t.Error("an unreleased machine was handed out again")
	}
	cold := NewMachines(true)
	m := cold.Acquire(&cfg)
	cold.Release(m)
	if cold.Acquire(&cfg) == m {
		t.Error("a cold cache reused a machine")
	}
}

// Each hands every worker its own state, runs every item exactly once, and
// with one worker runs (and reports) in index order on the caller's
// goroutine.
func TestEachStateAndOrder(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 3} {
		var states atomic.Int32
		ran := make([]int, n)
		var order []int
		err := Each(workers, n,
			func() *int { states.Add(1); return new(int) },
			func(s *int, i int) error { *s++; ran[i]++; return nil },
			func(i int) { order = append(order, i) })
		if err != nil {
			t.Fatal(err)
		}
		if int(states.Load()) != workers {
			t.Errorf("workers=%d: %d states made", workers, states.Load())
		}
		for i, k := range ran {
			if k != 1 {
				t.Errorf("workers=%d: item %d ran %d times", workers, i, k)
			}
		}
		if len(order) != n {
			t.Errorf("workers=%d: %d done calls, want %d", workers, len(order), n)
		}
		if workers == 1 {
			for i, k := range order {
				if k != i {
					t.Fatalf("sequential done order %v", order)
				}
			}
		}
	}
}
