package litmus

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"tlrsim/internal/proc"
	"tlrsim/internal/runner"
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
	// Progress, when non-nil, is called after each program completes with
	// (done, total). Calls arrive in completion order.
	Progress func(done, total int)

	// cold runs every machine cold (runner.NewMachines): the reference
	// warm reuse is benchmarked against. Only tests set it.
	cold bool
	// onMachine, when set, rewrites the program the machine runs while the
	// reference set stays the original's: tests plant divergences with it.
	onMachine func(Program) Program
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
	// Perturb is the perturbation the run used, jitter defaulted as Check
	// defaults it: with Prog, Scheme and Seed it replays the run exactly.
	Perturb Perturb
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
// lock-based reference set. Results are deterministic: divergences are
// reported in enumeration order regardless of host scheduling.
//
// The sweep keeps no state per program: workers fill a scratch program from
// the compact program list, and sum their counts as they go.
func Check(opts Options) *Report {
	if len(opts.Seeds) == 0 {
		opts.Seeds = DefaultSeeds
	}
	if len(opts.Schemes) == 0 {
		opts.Schemes = DefaultSchemes
	}
	opts.Perturb = opts.Perturb.withDefaultJitter()
	if opts.MaxDivergences == 0 {
		opts.MaxDivergences = DefaultMaxDivergences
	}
	ps := enumerate(opts.Shape)
	n := ps.len()
	// checkOne never fails (a failed run is a divergence), so Each returns
	// nil. Workers are created on their own goroutines.
	var (
		mu      sync.Mutex
		tallies []*tally
	)
	completed := 0
	runner.Each(opts.Jobs, n,
		func() *worker {
			w := newWorker(ps, &opts)
			mu.Lock()
			tallies = append(tallies, &w.tally)
			mu.Unlock()
			return w
		},
		func(w *worker, i int) error {
			w.checkOne(i)
			return nil
		},
		func(int) {
			completed++
			if opts.Progress != nil {
				opts.Progress(completed, n)
			}
		})

	rep := &Report{Shape: opts.Shape, EnumStats: ps.stats, Programs: n}
	mergeTallies(rep, tallies, opts.MaxDivergences)
	return rep
}

// tally is what one worker has found over the programs it checked.
type tally struct {
	runs, refOutcomes, observed, divergences int
	// divs retains the worker's first MaxDivergences divergences, in the
	// order it found them: by program index, since a worker claims
	// programs in increasing order.
	divs []indexedDivergence
}

// indexedDivergence is a divergence and the index of its program.
type indexedDivergence struct {
	prog int
	Divergence
}

// mergeTallies sums the workers' tallies into rep and keeps the first keep
// divergences in program order. Every program is checked by one worker, so
// a stable sort by program index keeps each program's divergences in the
// order they were found; and each worker retained its own first keep, which
// include every one of them among the first keep overall.
func mergeTallies(rep *Report, ts []*tally, keep int) {
	var all []indexedDivergence
	for _, t := range ts {
		rep.Runs += t.runs
		rep.RefOutcomes += t.refOutcomes
		rep.ObservedOutcomes += t.observed
		rep.TotalDivergences += t.divergences
		all = append(all, t.divs...)
	}
	slices.SortStableFunc(all, func(a, b indexedDivergence) int { return a.prog - b.prog })
	for _, d := range all {
		if len(rep.Divergences) >= keep {
			break
		}
		rep.Divergences = append(rep.Divergences, d.Divergence)
	}
}

// worker is one sweep goroutine's state: a runner (machine cache and
// scratch arenas), a reference-model explorer, a scratch program, the
// observed-outcome scratch, and its tally.
type worker struct {
	ps   *programSet
	opts *Options
	r    *Runner
	e    *explorer
	p    Program
	// seen has bit i set when the current scheme's runs produced reference
	// outcome i; escaped lists the distinct outcomes they produced outside
	// the reference set.
	seen    []uint64
	escaped []string
	tally
}

func newWorker(ps *programSet, opts *Options) *worker {
	return &worker{
		ps: ps, opts: opts,
		r: newRunner(opts.cold), e: newExplorer(),
		p: Program{Threads: make([]Thread, ps.cpus)},
	}
}

// checkOne sweeps program i: reference set once, then every (scheme, seed)
// machine run checked against it, all on the worker's pooled machines and
// reused model state. Only a divergence allocates.
func (w *worker) checkOne(i int) {
	w.ps.fill(&w.p, i)
	ref := w.e.outcomesOf(w.p)
	w.refOutcomes += ref.len()
	words := (ref.len() + 63) / 64
	w.seen = slices.Grow(w.seen[:0], words)[:words]
	run := w.p
	if w.opts.onMachine != nil {
		run = w.opts.onMachine(w.p)
	}
	for _, scheme := range w.opts.Schemes {
		clear(w.seen)
		w.escaped = w.escaped[:0]
		for _, seed := range w.opts.Seeds {
			w.runs++
			out, err := w.r.run(run, scheme, seed, &w.opts.Perturb)
			if err != nil {
				w.diverge(i, ref, Divergence{Scheme: scheme, Seed: seed, Err: err})
				continue
			}
			if j := ref.index(out); j >= 0 {
				if w.seen[j/64]&(1<<(j%64)) == 0 {
					w.seen[j/64] |= 1 << (j % 64)
					w.observed++
				}
				continue
			}
			o := string(out)
			if !slices.Contains(w.escaped, o) {
				w.escaped = append(w.escaped, o)
				w.observed++
			}
			w.diverge(i, ref, Divergence{Scheme: scheme, Seed: seed, Outcome: o})
		}
	}
}

// diverge counts a divergence of program i, whose reference set is ref,
// and retains it while the worker holds fewer than MaxDivergences: d is
// completed with copies of the program and the set, which outlive the
// worker's scratch.
func (w *worker) diverge(i int, ref outcomeSet, d Divergence) {
	w.divergences++
	if len(w.divs) >= w.opts.MaxDivergences {
		return
	}
	d.Prog = Program{NumLocs: w.p.NumLocs, Threads: slices.Clone(w.p.Threads)}
	d.Locked = ref.strings()
	d.Perturb = w.opts.Perturb
	w.divs = append(w.divs, indexedDivergence{i, d})
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
