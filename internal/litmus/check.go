package litmus

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"tlrsim/internal/proc"
)

// Options configures a containment-checking sweep.
type Options struct {
	Shape Shape
	// Seeds are the machine seeds swept per (program, scheme). Each seed
	// also perturbs scheduling (see Perturb), so distinct seeds explore
	// distinct interleavings.
	Seeds []int64
	// Schemes are the machine schemes to run. BASE outcomes are checked for
	// containment too — the reference model is the architectural envelope,
	// so a BASE escape means the timing model itself broke the memory
	// contract, not just the elision machinery.
	Schemes []proc.Scheme
	// Perturb overrides DefaultPerturb when non-zero.
	Perturb Perturb
	// Jobs caps worker goroutines; <=0 means GOMAXPROCS. Machines are
	// isolated deterministic runs, so programs shard freely across cores.
	Jobs int
	// MaxDivergences bounds how many divergences are retained with full
	// detail (the total is always counted). 0 means DefaultMaxDivergences.
	MaxDivergences int
	// ColdStart disables warm-machine reuse: every run constructs a fresh
	// machine (the pre-pool behaviour). Outcomes are identical either way —
	// Reset is exact — so this exists for cross-checking and benchmarking.
	ColdStart bool
	// Progress, when non-nil, is called after each program completes with
	// (done, total). Calls arrive in completion order.
	Progress func(done, total int)
}

// DefaultSeeds is the standard sweep: eight seeds, as the correctness gate
// requires.
var DefaultSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// DefaultSchemes runs the lock-based baseline and both eliding schemes.
var DefaultSchemes = []proc.Scheme{proc.Base, proc.SLE, proc.TLR}

// DefaultMaxDivergences bounds retained divergence detail.
const DefaultMaxDivergences = 16

// Divergence is one containment violation: a machine run whose outcome the
// lock-based reference set does not admit, or a machine run that failed
// outright (deadlock, livelock, functional-checker violation).
type Divergence struct {
	Prog   Program
	Scheme proc.Scheme
	Seed   int64
	// Outcome is the escaped outcome ("" when the run errored instead).
	Outcome string
	// Err is the run failure (nil for an outcome escape).
	Err error
	// Locked is the reference outcome set the outcome escaped from.
	Locked []string
}

func (d Divergence) String() string {
	if d.Err != nil {
		return fmt.Sprintf("%s under %v seed %d: run failed: %v", d.Prog, d.Scheme, d.Seed, d.Err)
	}
	return fmt.Sprintf("%s under %v seed %d: outcome %q not in locked set %v",
		d.Prog, d.Scheme, d.Seed, d.Outcome, d.Locked)
}

// Report summarises a sweep.
type Report struct {
	Shape     Shape
	EnumStats EnumStats
	// Programs is the number of canonical programs checked.
	Programs int
	// Runs is the number of machine runs executed.
	Runs int
	// RefOutcomes is the summed size of the reference outcome sets.
	RefOutcomes int
	// ObservedOutcomes is the summed count of distinct outcomes the machine
	// actually produced, per (program, scheme).
	ObservedOutcomes int
	// TotalDivergences counts every divergence found; Divergences retains
	// detail for at most MaxDivergences of them, in program order.
	TotalDivergences int
	Divergences      []Divergence
}

// Ok reports whether the sweep found no divergence.
func (r *Report) Ok() bool { return r.TotalDivergences == 0 }

// Check enumerates the shape and verifies outcome-set containment for every
// program: machine outcomes under every scheme must lie inside the analytic
// lock-based reference set. Results are deterministic: programs are checked
// in enumeration order and divergences reported in that order regardless of
// host scheduling.
func Check(opts Options) *Report {
	// A sweep's live heap is tiny (pooled machines, one explorer, the
	// program list) while its garbage is not: outcome strings and the CPU's
	// per-operation closures, about 30 objects and 1.2 KB per machine run.
	// GOGC=600 for the duration of the sweep (restored on return) lets the
	// collector run a few times instead of dozens. Measured on the 2x2x<=3
	// shape with one seed (175,449 runs; 2-vCPU x86-64 host, GOMAXPROCS=1,
	// 11 alternating pairs in fresh processes): with the override 4 GC
	// cycles, 2.74 s median and about 70 MB peak RSS; without it 28-29
	// cycles, 3.29 s (+20%; the override won 10 of 11 pairs) and about
	// 24 MB. The time is worth more than the memory here.
	defer debug.SetGCPercent(debug.SetGCPercent(600))
	progs, st := Enumerate(opts.Shape)
	return checkPrograms(progs, st, opts)
}

// progResult is one program's sweep outcome.
type progResult struct {
	runs        int
	refSize     int
	observed    int
	divergences []Divergence
}

func checkPrograms(progs []Program, st EnumStats, opts Options) *Report {
	if len(opts.Seeds) == 0 {
		opts.Seeds = DefaultSeeds
	}
	if len(opts.Schemes) == 0 {
		opts.Schemes = DefaultSchemes
	}
	if opts.Perturb.StartJitter == 0 && opts.Perturb.ArbJitter == 0 {
		// Default the scheduling jitter while keeping any fault spec: chaos
		// sweeps compose injected adversity with the standard perturbation.
		opts.Perturb.StartJitter = DefaultPerturb.StartJitter
		opts.Perturb.ArbJitter = DefaultPerturb.ArbJitter
	}
	if opts.MaxDivergences == 0 {
		opts.MaxDivergences = DefaultMaxDivergences
	}
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(progs) {
		workers = len(progs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]progResult, len(progs))
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
		done int
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(progs) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	work := func() {
		defer wg.Done()
		// One pooled runner and one reference-model explorer per worker:
		// both are single-goroutine state, and per-worker reuse needs no
		// locking.
		r := NewRunner()
		if opts.ColdStart {
			r = NewColdRunner()
		}
		e := newExplorer()
		for {
			i, ok := claim()
			if !ok {
				return
			}
			results[i] = checkOne(r, e, progs[i], opts)
			if opts.Progress != nil {
				mu.Lock()
				done++
				opts.Progress(done, len(progs))
				mu.Unlock()
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()

	rep := &Report{Shape: opts.Shape, EnumStats: st, Programs: len(progs)}
	for _, r := range results {
		rep.Runs += r.runs
		rep.RefOutcomes += r.refSize
		rep.ObservedOutcomes += r.observed
		rep.TotalDivergences += len(r.divergences)
		for _, d := range r.divergences {
			if len(rep.Divergences) < opts.MaxDivergences {
				rep.Divergences = append(rep.Divergences, d)
			}
		}
	}
	return rep
}

// checkOne sweeps one program: reference set once, then every
// (scheme, seed) machine run checked against it, all on r's pooled machines
// and e's reused model state.
func checkOne(r *Runner, e *explorer, p Program, opts Options) progResult {
	// locked aliases e's reused storage: a divergence that retains it must
	// copy (divergences are rare; the copy is off the hot path).
	locked := e.outcomesOf(p)
	keepLocked := func() []string { return append([]string(nil), locked...) }
	lockedSet := make(map[string]struct{}, len(locked))
	for _, o := range locked {
		lockedSet[o] = struct{}{}
	}
	res := progResult{refSize: len(locked)}
	for _, scheme := range opts.Schemes {
		seen := map[string]struct{}{}
		for _, seed := range opts.Seeds {
			res.runs++
			out, err := r.Run(p, scheme, seed, opts.Perturb)
			if err != nil {
				res.divergences = append(res.divergences, Divergence{
					Prog: p, Scheme: scheme, Seed: seed, Err: err, Locked: keepLocked(),
				})
				continue
			}
			seen[out] = struct{}{}
			if _, ok := lockedSet[out]; !ok {
				res.divergences = append(res.divergences, Divergence{
					Prog: p, Scheme: scheme, Seed: seed, Outcome: out, Locked: keepLocked(),
				})
			}
		}
		res.observed += len(seen)
	}
	return res
}

// CheckOutcomes validates an explicit outcome set against the program's
// reference set, returning the outcomes that escape containment (sorted).
// It is the core assertion of Check factored out for direct use: feed it the
// outcome set of any execution strategy and it answers whether that strategy
// admitted new behaviours.
func CheckOutcomes(p Program, outcomes []string) []string {
	lockedSet := map[string]struct{}{}
	for _, o := range ReferenceOutcomes(p) {
		lockedSet[o] = struct{}{}
	}
	var escaped []string
	for _, o := range outcomes {
		if _, ok := lockedSet[o]; !ok {
			escaped = append(escaped, o)
		}
	}
	sort.Strings(escaped)
	return escaped
}
