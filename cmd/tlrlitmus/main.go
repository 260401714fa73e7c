// Command tlrlitmus exhaustively checks lock-elision correctness on small
// litmus programs: it enumerates every program of a shape (CPUs x locations
// x ops per thread, deduplicated up to symmetry), computes the complete
// lock-based outcome set under the machine's memory model, runs each program
// on the simulated machine under BASE and the eliding schemes across a seed
// sweep with scheduling perturbations, and reports any outcome the locked
// set does not admit — the paper's core claim, checked mechanically.
//
// Any divergence is printed as a ready-to-paste Go reproducer test and the
// command exits non-zero.
//
// With -faults SPEC the sweep runs in chaos mode: every machine run executes
// under the given deterministic fault-injection spec (see internal/fault),
// and containment must still hold — injected adversity may select among
// contained outcomes, never admit new ones.
//
// Usage:
//
//	tlrlitmus [-cpus N] [-locs N] [-ops N] [-seeds N] [-jobs N] [-short] [-faults SPEC] [-fault-seed N] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tlrsim/internal/fault"
	"tlrsim/internal/litmus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tlrlitmus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpus  = fs.Int("cpus", 2, "threads (one per CPU), 2 or 3")
		locs  = fs.Int("locs", 2, "shared locations, 2 or 3")
		ops   = fs.Int("ops", 3, "max ops per thread, 1..3")
		seeds = fs.Int("seeds", 8, "seeds per (program, scheme)")
		jobs  = fs.Int("jobs", 0, "parallel programs (0 = host cores)")
		short = fs.Bool("short", false, "quick smoke shape: at most 2 ops per thread, 4 seeds")
		verb  = fs.Bool("v", false, "progress output")

		faultSpec = fs.String("faults", "", "chaos mode: fault-injection spec applied to every machine run (e.g. \"nack=25,abort=10,cap=16\"; see internal/fault)")
		faultSeed = fs.Int64("fault-seed", 0, "fault-injector stream seed (overrides seed= in -faults when nonzero)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	faults, err := fault.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintf(stderr, "tlrlitmus: %v\n", err)
		return 2
	}
	if *faultSeed != 0 {
		faults.Seed = *faultSeed
	}
	if *cpus < 2 || *cpus > 3 || *locs < 2 || *locs > 3 || *ops < 1 || *ops > 3 || *seeds < 1 {
		fmt.Fprintln(stderr, "tlrlitmus: -cpus/-locs in 2..3, -ops in 1..3, -seeds >= 1")
		return 2
	}
	if *short {
		if *ops > 2 {
			*ops = 2
		}
		if *seeds > 4 {
			*seeds = 4
		}
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	opts := litmus.Options{
		Shape:   litmus.Shape{CPUs: *cpus, Locs: *locs, MaxOps: *ops},
		Seeds:   seedList,
		Jobs:    *jobs,
		Perturb: litmus.Perturb{Faults: faults},
	}
	if *verb {
		start := time.Now()
		opts.Progress = func(done, total int) {
			if done%5000 == 0 || done == total {
				fmt.Fprintf(stderr, "tlrlitmus: %d/%d programs (%.0fs)\n",
					done, total, time.Since(start).Seconds())
			}
		}
	}
	start := time.Now()
	rep := litmus.Check(opts)
	fmt.Fprintf(stdout, "shape: %d CPUs x %d locs x <=%d ops, %d seeds\n",
		*cpus, *locs, *ops, *seeds)
	if faults.Enabled() {
		fmt.Fprintf(stdout, "faults: %s\n", faults)
	}
	fmt.Fprintf(stdout, "programs: %d raw tuples, %d scheme-sensitive, %d canonical\n",
		rep.EnumStats.Raw, rep.EnumStats.AfterFilters, rep.EnumStats.Canonical)
	fmt.Fprintf(stdout, "runs: %d machine runs, %d reference outcomes, %d observed outcomes (%.1fs)\n",
		rep.Runs, rep.RefOutcomes, rep.ObservedOutcomes, time.Since(start).Seconds())
	if rep.Ok() {
		fmt.Fprintln(stdout, "containment: OK — every elided outcome is admitted by the locked set")
		return 0
	}
	fmt.Fprintf(stdout, "containment: FAILED — %d divergence(s)\n", rep.TotalDivergences)
	for i, d := range rep.Divergences {
		fmt.Fprintf(stdout, "\n--- divergence %d: %s\n", i+1, d)
		fmt.Fprintf(stdout, "\n%s\n", d.GoTest(fmt.Sprintf("TestLitmusRepro%d", i+1)))
	}
	if rep.TotalDivergences > len(rep.Divergences) {
		fmt.Fprintf(stdout, "(%d further divergences suppressed)\n",
			rep.TotalDivergences-len(rep.Divergences))
	}
	return 1
}
