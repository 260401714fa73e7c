// Package runner executes independent simulation jobs across a bounded
// worker pool.
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
	// Cold disables warm-machine reuse: every job constructs a fresh
	// machine. Results are identical either way — Reset is exact — so cold
	// runs are the reference reuse is checked against, and a benchmarking
	// baseline.
	Cold bool
}

// machineCache is one worker's pool of warm machines, keyed by construction
// shape. It is single-goroutine state: each worker owns one.
type machineCache struct {
	cold     bool
	machines map[proc.ResetShape]*proc.Machine
}

// newMachineCache returns an empty cache; cold caches never reuse.
func newMachineCache(cold bool) *machineCache {
	return &machineCache{cold: cold, machines: make(map[proc.ResetShape]*proc.Machine)}
}

// acquire returns a machine constructed (or exactly rewound) for cfg. The
// caller owns it until release; a machine that errors out mid-run must NOT
// be released — dropping it is how poisoned (non-quiescent) machines leave
// the pool.
func (c *machineCache) acquire(cfg proc.Config) *proc.Machine {
	if c.cold {
		return proc.NewMachine(cfg)
	}
	key := cfg.ResetShape()
	if m := c.machines[key]; m != nil {
		delete(c.machines, key)
		if m.Reset(cfg) == nil {
			return m
		}
	}
	return proc.NewMachine(cfg)
}

// release returns a successfully finished machine to the cache for reuse.
func (c *machineCache) release(m *proc.Machine) {
	if c.cold {
		return
	}
	c.machines[m.Config().ResetShape()] = m
}

// Run executes the jobs and returns their results in job order. On failure
// the error of the earliest-indexed failed job is returned (so the reported
// error does not depend on host scheduling), and jobs not yet started are
// cancelled.
func (p *Pool) Run(jobs []Job) ([]*stats.Run, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]*stats.Run, len(jobs))
	if workers <= 1 {
		// Sequential path: identical to the pre-runner harness loops,
		// including stopping at the first error in order.
		mc := newMachineCache(p.Cold)
		for i, j := range jobs {
			run, err := execute(mc, j)
			if err != nil {
				return nil, err
			}
			results[i] = run
			p.report(i+1, len(jobs), j.Label, run)
		}
		return results, nil
	}

	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		next      int
		done      int
		errs      = make([]error, len(jobs))
		cancelled bool
	)
	// claim hands out the next job index, or false once the list is
	// exhausted or a failure has cancelled the remaining jobs.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if cancelled || next >= len(jobs) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc := newMachineCache(p.Cold)
			for {
				i, ok := claim()
				if !ok {
					return
				}
				run, err := execute(mc, jobs[i])
				mu.Lock()
				if err != nil {
					errs[i] = err
					cancelled = true // first error wins: stop handing out jobs
				} else {
					results[i] = run
					done++
					p.report(done, len(jobs), jobs[i].Label, run)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Several in-flight jobs may have failed; report the earliest-indexed
	// error so the outcome is deterministic.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func (p *Pool) report(done, total int, label string, run *stats.Run) {
	if p.Progress != nil {
		p.Progress(done, total, label, run)
	}
}

// execute runs one job to completion on a cached machine and aggregates its
// counters.
func execute(mc *machineCache, j Job) (*stats.Run, error) {
	m := mc.acquire(j.Config)
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
	mc.release(m)
	return run, nil
}
