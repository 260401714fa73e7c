package litmus

import (
	"fmt"
	"sort"

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
// lock-based reference set. Results are deterministic: programs are checked
// in enumeration order and divergences reported in that order regardless of
// host scheduling.
func Check(opts Options) *Report {
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
	opts.Perturb = opts.Perturb.withDefaultJitter()
	if opts.MaxDivergences == 0 {
		opts.MaxDivergences = DefaultMaxDivergences
	}
	results := make([]progResult, len(progs))
	// One runner (machine cache and scratch arenas) and one reference-model
	// explorer per worker: both are single-goroutine state. checkOne never
	// fails (a failed run is a divergence), so Each returns nil.
	type worker struct {
		r *Runner
		e *explorer
	}
	completed := 0
	runner.Each(opts.Jobs, len(progs),
		func() worker { return worker{newRunner(opts.cold), newExplorer()} },
		func(w worker, i int) error {
			results[i] = checkOne(w.r, w.e, progs[i], opts)
			return nil
		},
		func(int) {
			completed++
			if opts.Progress != nil {
				opts.Progress(completed, len(progs))
			}
		})

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
			out, err := r.Run(p, scheme, seed, &opts.Perturb)
			if err != nil {
				res.divergences = append(res.divergences, Divergence{
					Prog: p, Scheme: scheme, Seed: seed, Err: err, Locked: keepLocked(),
					Perturb: opts.Perturb,
				})
				continue
			}
			seen[out] = struct{}{}
			if _, ok := lockedSet[out]; !ok {
				res.divergences = append(res.divergences, Divergence{
					Prog: p, Scheme: scheme, Seed: seed, Outcome: out, Locked: keepLocked(),
					Perturb: opts.Perturb,
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
