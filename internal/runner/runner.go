// Package runner executes batches of independent simulated machines: the
// one worker pool (Each) and the one warm-machine cache (Machines) that
// both the experiment harness (Pool) and the litmus sweep run on.
//
// Each simulated machine is an isolated, deterministic discrete-event run
// (internal/sim): it shares no mutable state with any other machine, so
// whole machines can execute concurrently on host cores without perturbing
// the simulated results. The pool preserves that determinism at the
// reporting layer by returning results in job order regardless of
// completion order — an experiment's rendered report is a pure function of
// its job list, not of host scheduling.
//
// Workers keep per-shape machine caches: every job runs on a warm machine
// rewound by proc.Machine.Reset, which is exact, so a rewound machine is
// indistinguishable from a fresh one. The cache exists for sweep throughput
// and is not allowed to change a single reported byte.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// Job is one simulated machine: a configuration plus a workload builder.
// Build is called inside the worker goroutine, so every job gets a fresh
// workload instance and jobs never share workload state.
type Job struct {
	// Label identifies the job in progress lines and error messages.
	Label string
	// Config is the machine under test.
	Config proc.Config
	// Build constructs the workload the machine runs.
	Build func() workloads.Workload
	// Run, when non-nil, replaces Build: it drives the whole run on the
	// acquired machine (typically workloads.RunOn plus whatever the job
	// attaches around it, such as a telemetry recorder). The machine's
	// counters are collected after it returns nil.
	Run func(m *proc.Machine) error
}

// Progress is called after each job completes. done counts completed jobs
// including this one; calls are serialised but arrive in completion order,
// which under parallel execution is not job order.
type Progress func(done, total int, label string, run *stats.Run)

// Pool is a bounded-concurrency job scheduler.
type Pool struct {
	// Workers caps concurrent jobs. <= 0 means runtime.GOMAXPROCS(0);
	// 1 runs the work strictly sequentially in order.
	Workers int
	// Progress, when non-nil, receives one callback per completed job.
	Progress Progress
	// Cold gives every worker a cold machine cache (see NewMachines).
	Cold bool
}

// Machines is a cache of warm machines keyed by construction shape
// (proc.ResetShape). It is single-goroutine state: each worker owns one.
// A batch uses a handful of shapes, so the cache is a short slice found by
// comparing shapes: no hashing of the shape on every Acquire.
type Machines struct {
	cold     bool
	machines []warmMachine
}

// warmMachine is one shape's slot; m is nil while the machine is out.
type warmMachine struct {
	shape proc.ResetShape
	m     *proc.Machine
}

// NewMachines returns an empty cache. A cold cache never reuses: every
// Acquire constructs a fresh machine. Reset is exact, so results are
// identical either way; cold caches are the reference tests check reuse
// against.
func NewMachines(cold bool) *Machines {
	return &Machines{cold: cold}
}

// Acquire returns a machine constructed (or exactly rewound) for cfg. The
// caller owns it until Release; a machine whose run errored must NOT be
// released — dropping it is how poisoned (non-quiescent) machines leave the
// cache. cfg is read, not kept.
func (c *Machines) Acquire(cfg *proc.Config) *proc.Machine {
	if c.cold {
		return proc.NewMachine(*cfg)
	}
	shape := cfg.ResetShape()
	if w := c.slot(&shape); w != nil && w.m != nil {
		m := w.m
		w.m = nil
		if m.Reset(cfg) == nil {
			return m
		}
	}
	return proc.NewMachine(*cfg)
}

// slot returns the cache slot for shape, or nil if the shape has none.
func (c *Machines) slot(shape *proc.ResetShape) *warmMachine {
	for i := range c.machines {
		if c.machines[i].shape == *shape {
			return &c.machines[i]
		}
	}
	return nil
}

// Release returns a successfully finished machine to the cache for reuse.
func (c *Machines) Release(m *proc.Machine) {
	if c.cold {
		return
	}
	shape := m.Shape()
	if w := c.slot(shape); w != nil {
		w.m = m
		return
	}
	c.machines = append(c.machines, warmMachine{*shape, m})
}

// Run executes the jobs and returns their results in job order. On failure
// the error of the earliest-indexed failed job is returned (so the reported
// error does not depend on host scheduling), and jobs not yet started are
// cancelled.
func (p *Pool) Run(jobs []Job) ([]*stats.Run, error) {
	results := make([]*stats.Run, len(jobs))
	completed := 0
	err := Each(p.Workers, len(jobs),
		func() *Machines { return NewMachines(p.Cold) },
		func(mc *Machines, i int) (err error) {
			results[i], err = execute(mc, jobs[i])
			return err
		},
		func(i int) {
			completed++
			if p.Progress != nil {
				p.Progress(completed, len(jobs), jobs[i].Label, results[i])
			}
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Each runs work(state, i) for every i in [0, n) on up to workers
// goroutines and returns the error of the earliest-indexed failed item, so
// the reported error does not depend on host scheduling.
//   - workers <= 0 means runtime.GOMAXPROCS(0); 1 runs the items in order
//     on the caller's goroutine and stops at the first error.
//   - Every worker calls newState once and passes its state to every item it
//     runs, so single-goroutine state (a machine cache, scratch arenas)
//     needs no locking.
//   - done, when non-nil, is called after each successful item. Calls are
//     serialised and arrive in completion order, which under parallel
//     execution is not index order.
//   - The first error stops new items from being claimed; items already
//     running finish.
func Each[S any](workers, n int, newState func() S, work func(S, int) error, done func(int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n == 0 {
			return nil
		}
		s := newState()
		for i := 0; i < n; i++ {
			if err := work(s, i); err != nil {
				return err
			}
			if done != nil {
				done(i)
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     int
		firstErr error
		firstIdx int
	)
	// claim hands out the next index, or false once the items are
	// exhausted or a failure has cancelled the rest.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := newState()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				err := work(s, i)
				mu.Lock()
				if err != nil {
					// Several in-flight items may fail; keep the
					// earliest-indexed error so the outcome is
					// deterministic.
					if firstErr == nil || i < firstIdx {
						firstErr, firstIdx = err, i
					}
				} else if done != nil {
					done(i)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// execute runs one job to completion on a cached machine and aggregates its
// counters.
func execute(mc *Machines, j Job) (*stats.Run, error) {
	m := mc.Acquire(&j.Config)
	var err error
	if j.Run != nil {
		err = j.Run(m)
	} else {
		err = workloads.RunOn(m, j.Build())
	}
	if err != nil {
		// The machine may be mid-flight (blocked threads, pending events);
		// drop it rather than poison the cache.
		if j.Label != "" {
			return nil, fmt.Errorf("%s: %w", j.Label, err)
		}
		return nil, err
	}
	run := stats.Collect(m)
	mc.Release(m)
	return run, nil
}
