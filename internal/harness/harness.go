// Package harness defines one experiment per table and figure of the
// paper's evaluation (§5-§6) and regenerates the corresponding data series:
// workload, parameters, schemes, sweep, and report.
//
// Absolute cycle counts are not expected to match the authors' testbed; the
// experiments reproduce the SHAPE of each result — who wins, by roughly
// what factor, and where the crossovers fall — as recorded in
// EXPERIMENTS.md.
//
// Every experiment enumerates its (scheme, processor-count, configuration)
// points up front and submits them to internal/runner, which executes the
// simulated machines across host cores. Results come back in enumeration
// order, so reports are byte-identical at any parallelism level.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/proc"
	"tlrsim/internal/runner"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives all simulated randomness.
	Seed int64
	// Ops scales total operation counts (1.0 = the harness defaults, which
	// are sized to finish in seconds; raise toward the paper's 2^16-2^24
	// when cycles to burn).
	Ops float64
	// Procs are the sweep points for Figures 8-10 (default 2,4,8,16).
	Procs []int
	// AppProcs is the processor count for Figure 11 (paper: 16).
	AppProcs int
	// Jobs bounds how many simulated machines run concurrently on the host
	// (0 = runtime.GOMAXPROCS(0), 1 = strictly sequential). Reports are
	// independent of Jobs: each machine is an isolated deterministic run
	// and results are assembled in enumeration order.
	Jobs int
	// Progress, when non-nil, receives one callback per completed
	// simulation, in completion order.
	Progress runner.Progress
	// Metrics attaches the observability instrument set to every simulated
	// machine; each run's rendered dump lands in stats.Run.MetricsDump
	// (Result.MetricsDumps renders them per experiment). The instruments
	// never alter simulation results.
	Metrics bool
	// ColdStart disables warm-machine reuse: every point constructs a fresh
	// machine instead of rewinding a pooled one. Reports are identical
	// either way — machine reset is exact — so this exists for
	// cross-checking and benchmarking.
	ColdStart bool
	// Flight arms the post-mortem flight recorder on every simulated machine:
	// a bounded ring of the most recent protocol events (cfg.TraceCapacity)
	// that StallError and checker-violation reports dump alongside the
	// per-CPU progress ledger. 0 leaves the recorder off; points that already
	// set their own TraceCapacity keep it.
	Flight int
	// Faults applies a deterministic fault-injection spec (see internal/fault)
	// to every simulated machine: any experiment can be re-run under injected
	// adversity to measure degradation. Each faulted point also arms the
	// forward-progress watchdog so a genuine stall surfaces as a structured
	// StallError instead of grinding to the event budget. The zero Spec is
	// fully inert.
	Faults fault.Spec
	// CM selects the contention-management policy for every eliding-scheme
	// (SLE/TLR) point of the experiment. The zero value is CMTimestamp — the
	// paper's timestamp policy — under which reports are byte-identical to a
	// harness without the policy seam. Points that set an explicit non-default
	// Policy.CM of their own keep it; ContentionMatrix enumerates all policies
	// itself and ignores this field.
	CM core.CM
}

// faultStallCycles is the watchdog window armed on faulted experiment
// machines: generous against the heaviest injected slowdowns (a healthy
// contended point progresses every few thousand cycles), tiny against the
// half-billion-event budget a livelock would otherwise grind toward.
const faultStallCycles = 2_000_000

// DefaultOptions returns the standard experiment configuration.
func DefaultOptions() Options {
	return Options{Seed: 2002, Ops: 1, Procs: []int{2, 4, 8, 16}, AppProcs: 16}
}

func (o Options) scaled(n int) int {
	if o.Ops <= 0 {
		o.Ops = 1
	}
	v := int(float64(n) * o.Ops)
	if v < 1 {
		v = 1
	}
	return v
}

// MachineConfig returns the paper's Table 2 target system for the given
// processor count and scheme. It is proc.BaselineConfig — the one shared
// construction path that machine reset semantics mirror — re-exported
// under the name the experiment code has always used.
func MachineConfig(procs int, scheme proc.Scheme, seed int64) proc.Config {
	return proc.BaselineConfig(procs, scheme, seed)
}

// Result is the outcome of one experiment: per-(scheme, procs) runs plus a
// rendered report.
type Result struct {
	Name   string
	Runs   map[string]map[int]*stats.Run // scheme label -> procs -> run
	Report string
	// Variants, when non-empty, marks a two-(or more-)variant experiment
	// such as RMWEffect or StoreBufferEffect: the inner map keys of Runs
	// are variant indices (0, 1, ...) named by Variants, not processor
	// counts, and CSV renders one labelled column per variant under a
	// KeyCol first column instead of a procs column.
	Variants []string
	// KeyCol names the first CSV column for variant experiments
	// ("app", "config"); empty means "config".
	KeyCol string
}

// Get returns the run for a scheme label at a processor count.
func (r *Result) Get(scheme string, procs int) *stats.Run {
	if m, ok := r.Runs[scheme]; ok {
		return m[procs]
	}
	return nil
}

// point is one enumerated simulation of an experiment: a display/error
// label, a machine configuration, and a workload builder.
type point struct {
	label string
	cfg   proc.Config
	build func() workloads.Workload
}

// apply applies the machine-level options to cfg: metrics, the flight
// recorder and fault injection (with its watchdog) where the point has not
// set its own, and the contention-management policy on eliding points that
// keep the default. Every experiment configures its machines through here.
func (o Options) apply(cfg proc.Config) proc.Config {
	cfg.EnableMetrics = o.Metrics
	if o.CM != core.CMTimestamp && cfg.Scheme.Elides() && cfg.Policy.CM == core.CMTimestamp {
		cfg.Policy.CM = o.CM
	}
	if o.Flight > 0 && cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = o.Flight
	}
	if o.Faults.Enabled() && !cfg.Faults.Enabled() {
		cfg.Faults = o.Faults
	}
	if cfg.Faults.Enabled() && cfg.StallCycles == 0 {
		cfg.StallCycles = faultStallCycles
	}
	return cfg
}

// pool returns the worker pool configured by o.
func (o Options) pool() *runner.Pool {
	return &runner.Pool{Workers: o.Jobs, Progress: o.Progress, Cold: o.ColdStart}
}

// runPoints executes the experiment's points on the worker pool configured
// by o and returns the results in enumeration order.
func runPoints(o Options, points []point) ([]*stats.Run, error) {
	jobs := make([]runner.Job, len(points))
	for i, pt := range points {
		jobs[i] = runner.Job{Label: pt.label, Config: o.apply(pt.cfg), Build: pt.build}
	}
	return o.pool().Run(jobs)
}

// sweep runs a microbenchmark across schemes and processor counts.
func sweep(name string, o Options, schemes []proc.Scheme, build func() workloads.Workload) (*Result, error) {
	var points []point
	for _, scheme := range schemes {
		for _, p := range o.Procs {
			points = append(points, point{
				label: fmt.Sprintf("%v procs=%d", scheme, p),
				cfg:   MachineConfig(p, scheme, o.Seed),
				build: build,
			})
		}
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: name, Runs: make(map[string]map[int]*stats.Run)}
	var series []stats.Series
	i := 0
	for _, scheme := range schemes {
		label := scheme.String()
		res.Runs[label] = make(map[int]*stats.Run)
		s := stats.Series{Label: label, Points: make(map[int]uint64)}
		for _, p := range o.Procs {
			run := runs[i]
			i++
			res.Runs[label][p] = run
			s.Points[p] = run.Cycles
		}
		series = append(series, s)
	}
	res.Report = stats.FigureTable(name, o.Procs, series)
	return res, nil
}

var microSchemes = []proc.Scheme{proc.Base, proc.MCS, proc.SLE, proc.TLR}

// Fig8 regenerates Figure 8: the multiple-counter microbenchmark
// (coarse-grain locking, no data conflicts). Expected shape: BASE degrades
// with processor count; MCS is flat with a constant software overhead;
// SLE = TLR scale perfectly.
func Fig8(o Options) (*Result, error) {
	total := o.scaled(4096)
	return sweep("Figure 8: multiple-counter (coarse-grain/no-conflicts), cycles vs procs",
		o, microSchemes,
		func() workloads.Workload { return &workloads.MultipleCounter{TotalOps: total} })
}

// Fig9 regenerates Figure 9: the single-counter microbenchmark
// (fine-grain/high-conflict), including the TLR-strict-ts ablation of §3.2.
// Expected shape: BASE degrades sharply; SLE tracks BASE (it gives up and
// acquires); MCS flat; TLR best; TLR-strict-ts slightly worse than TLR.
func Fig9(o Options) (*Result, error) {
	total := o.scaled(2048)
	schemes := append(append([]proc.Scheme{}, microSchemes...), proc.TLRStrictTS)
	return sweep("Figure 9: single-counter (fine-grain/high-conflict), cycles vs procs",
		o, schemes,
		func() workloads.Workload { return &workloads.SingleCounter{TotalOps: total} })
}

// Fig10 regenerates Figure 10: the doubly-linked list microbenchmark
// (fine-grain/dynamic conflicts). Expected shape: BASE and SLE degrade
// (SLE cannot predict when speculation is safe); MCS flat; TLR exploits
// enqueue/dequeue concurrency.
func Fig10(o Options) (*Result, error) {
	total := o.scaled(1024)
	return sweep("Figure 10: doubly-linked list (fine-grain/dynamic-conflicts), cycles vs procs",
		o, microSchemes,
		func() workloads.Workload { return &workloads.LinkedList{TotalOps: total} })
}

// AppSet returns the Figure 11 application kernels at the given scale. The
// per-unit compute is tuned so the BASE lock-time fractions land near the
// paper's characterisation (ocean/water small, raytrace ~16%, radiosity and
// barnes substantial, mp3d dominated by lock-access latency).
func AppSet(o Options) []func() workloads.Workload {
	return []func() workloads.Workload{
		func() workloads.Workload { return &workloads.OceanCont{Sweeps: o.scaled(64), Work: 9000} },
		func() workloads.Workload { return &workloads.WaterNsq{Mols: o.scaled(384), Work: 700} },
		func() workloads.Workload { return &workloads.Raytrace{Rays: o.scaled(640), ChunkSize: 4, Work: 700} },
		func() workloads.Workload { return &workloads.Radiosity{Tasks: o.scaled(448), Work: 1500} },
		func() workloads.Workload {
			return &workloads.Barnes{Bodies: o.scaled(448), Levels: 3, Branch: 4, Work: 600}
		},
		func() workloads.Workload {
			return &workloads.Cholesky{Tasks: o.scaled(120), Cols: 24, BigCols: 1, ColWords: 24, Work: 900}
		},
		func() workloads.Workload { return &workloads.MP3D{Steps: o.scaled(3072), Cells: 2048, Work: 60} },
	}
}

// AppResult holds Figure 11 data: per application, per scheme.
type AppResult struct {
	Apps   []string
	Runs   map[string]map[string]*stats.Run // app -> scheme label -> run
	Report string
}

// Get returns the run for an app under a scheme label.
func (r *AppResult) Get(app, scheme string) *stats.Run { return r.Runs[app][scheme] }

// Fig11 regenerates Figure 11 (and the §6.3 speedup discussion): the seven
// applications at 16 processors under BASE, BASE+SLE, BASE+SLE+TLR, and MCS
// (the MCS numbers feed the §6.3 comparisons), with execution time split
// into lock and non-lock contributions.
func Fig11(o Options) (*AppResult, error) {
	schemes := []proc.Scheme{proc.Base, proc.SLE, proc.TLR, proc.MCS}
	builders := AppSet(o)
	res := &AppResult{Runs: make(map[string]map[string]*stats.Run)}
	var points []point
	for _, build := range builders {
		name := build().Name()
		res.Apps = append(res.Apps, name)
		for _, scheme := range schemes {
			points = append(points, point{
				label: fmt.Sprintf("%s: %v procs=%d", name, scheme, o.AppProcs),
				cfg:   MachineConfig(o.AppProcs, scheme, o.Seed),
				build: build,
			})
		}
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{
		"app", "scheme", "cycles", "norm", "lock%", "commits", "aborts", "fallbacks", "abortsByReason",
	}}
	i := 0
	for _, name := range res.Apps {
		res.Runs[name] = make(map[string]*stats.Run)
		var base *stats.Run
		for _, scheme := range schemes {
			run := runs[i]
			i++
			res.Runs[name][scheme.String()] = run
			if scheme == proc.Base {
				base = run
			}
			t.Add(name, scheme.String(),
				fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%.3f", float64(run.Cycles)/float64(base.Cycles)),
				fmt.Sprintf("%.1f", 100*run.LockFraction()),
				fmt.Sprintf("%d", run.Commits),
				fmt.Sprintf("%d", run.Aborts),
				fmt.Sprintf("%d", run.Fallbacks),
				run.AbortReasonsString(),
			)
		}
	}
	res.Report = fmt.Sprintf("Figure 11: applications at %d processors (normalized to BASE)\n%s",
		o.AppProcs, t.String())
	return res, nil
}

// CoarseVsFine regenerates the §6.3 coarse-grain vs fine-grain experiment:
// mp3d with one lock for all cells. Expected shape: coarse is catastrophic
// for BASE (severe contention) but FASTER than fine-grain under TLR
// (paper: TLR-coarse beats BASE-fine by 2.40x and TLR-fine by 1.70x).
func CoarseVsFine(o Options) (*Result, error) {
	configs := []struct {
		label  string
		scheme proc.Scheme
		coarse bool
	}{
		{"BASE/fine", proc.Base, false},
		{"BASE/coarse", proc.Base, true},
		{"TLR/fine", proc.TLR, false},
		{"TLR/coarse", proc.TLR, true},
	}
	var points []point
	for _, c := range configs {
		coarse := c.coarse
		points = append(points, point{
			label: fmt.Sprintf("%s procs=%d", c.label, o.AppProcs),
			cfg:   MachineConfig(o.AppProcs, c.scheme, o.Seed),
			build: func() workloads.Workload {
				return &workloads.MP3D{Steps: o.scaled(3072), Cells: 2048, Work: 20, Coarse: coarse}
			},
		})
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "coarse-vs-fine", Runs: make(map[string]map[int]*stats.Run)}
	t := &stats.Table{Header: []string{"config", "cycles", "lock%", "aborts", "fallbacks"}}
	for i, c := range configs {
		run := runs[i]
		res.Runs[c.label] = map[int]*stats.Run{o.AppProcs: run}
		t.Add(c.label, fmt.Sprintf("%d", run.Cycles),
			fmt.Sprintf("%.1f", 100*run.LockFraction()),
			fmt.Sprintf("%d", run.Aborts), fmt.Sprintf("%d", run.Fallbacks))
	}
	res.Report = "Coarse-grain vs fine-grain locking, mp3d at " +
		fmt.Sprintf("%d", o.AppProcs) + " processors (§6.3)\n" + t.String()
	return res, nil
}

// RMWEffect regenerates the §6.3 read-modify-write predictor study: BASE
// with and without the PC-indexed collapsing predictor.
func RMWEffect(o Options) (*Result, error) {
	variants := []string{"BASE-no-opt", "BASE"}
	builders := AppSet(o)
	var points []point
	var names []string
	for _, build := range builders {
		name := build().Name()
		names = append(names, name)
		for vi, v := range variants {
			cfg := MachineConfig(o.AppProcs, proc.Base, o.Seed)
			cfg.UseRMWPredictor = vi == 1
			points = append(points, point{
				label: fmt.Sprintf("%s: %s procs=%d", name, v, o.AppProcs),
				cfg:   cfg,
				build: build,
			})
		}
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:     "rmw-predictor",
		Runs:     make(map[string]map[int]*stats.Run),
		Variants: variants,
		KeyCol:   "app",
	}
	t := &stats.Table{Header: []string{"app", "BASE-no-opt", "BASE", "speedup"}}
	for i, name := range names {
		off, on := runs[2*i], runs[2*i+1]
		res.Runs[name] = map[int]*stats.Run{0: off, 1: on}
		t.Add(name, fmt.Sprintf("%d", off.Cycles), fmt.Sprintf("%d", on.Cycles),
			fmt.Sprintf("%.3f", on.Speedup(off)))
	}
	res.Report = "Read-modify-write predictor effect on BASE (§6.3)\n" + t.String()
	return res, nil
}

// Table2 renders the simulated machine parameters (paper Table 2).
func Table2() string {
	cfg := MachineConfig(16, proc.TLR, 0)
	var b strings.Builder
	b.WriteString("Table 2: simulated machine parameters\n")
	fmt.Fprintf(&b, "  Processors            : %d in-order timing cores, 1 cycle/op issue\n", cfg.Procs)
	fmt.Fprintf(&b, "  L1 data cache         : %d KB, %d-way, %d B lines, %d-entry victim cache\n",
		cfg.Coherence.Cache.SizeBytes/1024, cfg.Coherence.Cache.Ways, 64, cfg.Coherence.Cache.VictimEntries)
	fmt.Fprintf(&b, "  Write buffer          : %d lines (speculative, coalescing)\n", cfg.Coherence.WriteBufferLines)
	fmt.Fprintf(&b, "  RMW predictor         : %d entries, PC(site)-indexed\n", cfg.RMWEntries)
	fmt.Fprintf(&b, "  Elision predictor     : %d entries, nesting depth 8\n", cfg.ElisionEntries)
	fmt.Fprintf(&b, "  Coherence             : MOESI broadcast snooping, split transactions\n")
	fmt.Fprintf(&b, "  Address network       : ordered broadcast, snoop latency %d cycles, %d outstanding\n",
		cfg.Coherence.Bus.SnoopLat, cfg.Coherence.Bus.MaxOutstanding)
	fmt.Fprintf(&b, "  Data network          : point-to-point, %d-cycle latency\n", cfg.Coherence.Bus.DataLat)
	fmt.Fprintf(&b, "  L2 / memory latency   : %d / %d cycles\n", cfg.Coherence.L2Lat, cfg.Coherence.MemLat)
	fmt.Fprintf(&b, "  Synchronization       : LL/SC; TLR deferral queue 16 entries\n")
	return b.String()
}

// Table1 renders the benchmark inventory (paper Table 1) with the kernel
// substitutions this reproduction uses.
func Table1() string {
	t := &stats.Table{Header: []string{"application", "models", "critical sections"}}
	t.Add("barnes", "N-body octree build", "tree node locks, contended near root")
	t.Add("cholesky", "matrix factoring", "task queue + column locks, some > write buffer")
	t.Add("mp3d", "rarefied field flow", "frequent uncontended cell locks, > L1 footprint")
	t.Add("radiosity", "3-D rendering", "contended task queue lock")
	t.Add("water-nsq", "water molecules", "frequent uncontended global-structure locks")
	t.Add("ocean-cont", "hydrodynamics", "counter locks, negligible lock time")
	t.Add("raytrace", "image rendering", "work list + counter locks")
	return "Table 1: benchmarks (synthetic kernels reproducing each application's locking behaviour)\n" + t.String()
}

// CSV renders the result's cycle counts as comma-separated values. Sweep
// results emit one row per processor count and one column per scheme label
// (sorted for determinism); variant results (RMWEffect, StoreBufferEffect)
// emit one row per labelled configuration and one column per variant.
func (r *Result) CSV() string {
	labels := make([]string, 0, len(r.Runs))
	for l := range r.Runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	if len(r.Variants) > 0 {
		key := r.KeyCol
		if key == "" {
			key = "config"
		}
		t := &stats.Table{Header: append([]string{key}, r.Variants...)}
		for _, l := range labels {
			row := []string{l}
			for vi := range r.Variants {
				if run, ok := r.Runs[l][vi]; ok {
					row = append(row, fmt.Sprintf("%d", run.Cycles))
				} else {
					row = append(row, "")
				}
			}
			t.Add(row...)
		}
		return t.CSV()
	}
	procSet := map[int]bool{}
	for _, runs := range r.Runs {
		for p := range runs {
			procSet[p] = true
		}
	}
	procs := stats.SortedKeys(procSet)
	t := &stats.Table{Header: append([]string{"procs"}, labels...)}
	for _, p := range procs {
		row := []string{fmt.Sprintf("%d", p)}
		for _, l := range labels {
			if run, ok := r.Runs[l][p]; ok {
				row = append(row, fmt.Sprintf("%d", run.Cycles))
			} else {
				row = append(row, "")
			}
		}
		t.Add(row...)
	}
	return t.CSV()
}

// CSV renders the application study as comma-separated values.
func (r *AppResult) CSV() string {
	t := &stats.Table{Header: []string{"app", "scheme", "cycles", "lockFraction", "commits", "aborts", "fallbacks", "abortsByReason"}}
	for _, app := range r.Apps {
		schemes := make([]string, 0, len(r.Runs[app]))
		for s := range r.Runs[app] {
			schemes = append(schemes, s)
		}
		sort.Strings(schemes)
		for _, s := range schemes {
			run := r.Runs[app][s]
			t.Add(app, s, fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%.4f", run.LockFraction()),
				fmt.Sprintf("%d", run.Commits), fmt.Sprintf("%d", run.Aborts),
				fmt.Sprintf("%d", run.Fallbacks),
				run.AbortReasonsString())
		}
	}
	return t.CSV()
}

// MetricsDumps renders every run's observability dump in deterministic order
// (sorted labels, ascending inner keys), each under a "== label ==" heading.
// Empty when the experiment ran without Options.Metrics.
func (r *Result) MetricsDumps() string {
	labels := make([]string, 0, len(r.Runs))
	for l := range r.Runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	for _, l := range labels {
		for _, k := range stats.SortedKeys(r.Runs[l]) {
			run := r.Runs[l][k]
			if run == nil || run.MetricsDump == "" {
				continue
			}
			key := fmt.Sprintf("procs=%d", k)
			if len(r.Variants) > 0 && k < len(r.Variants) {
				key = r.Variants[k]
			}
			fmt.Fprintf(&b, "== %s %s ==\n%s", l, key, run.MetricsDump)
		}
	}
	return b.String()
}

// MetricsDumps renders every run's observability dump in deterministic order
// (application order, sorted scheme labels). Empty when the experiment ran
// without Options.Metrics.
func (r *AppResult) MetricsDumps() string {
	var b strings.Builder
	for _, app := range r.Apps {
		schemes := make([]string, 0, len(r.Runs[app]))
		for s := range r.Runs[app] {
			schemes = append(schemes, s)
		}
		sort.Strings(schemes)
		for _, s := range schemes {
			run := r.Runs[app][s]
			if run == nil || run.MetricsDump == "" {
				continue
			}
			fmt.Fprintf(&b, "== %s %s ==\n%s", app, s, run.MetricsDump)
		}
	}
	return b.String()
}
