// Command tlrsim regenerates the tables and figures of "Transactional
// Lock-Free Execution of Lock-Based Programs" (Rajwar & Goodman, ASPLOS
// 2002) on the simulated target system.
//
// Usage:
//
//	tlrsim -experiment fig9
//	tlrsim -experiment fig11 -ops 2 -procs 16
//	tlrsim -experiment all -jobs 8 -v
//	tlrsim -experiment fig9 -metrics metrics.txt
//
// Experiments: table1, table2, fig8, fig9, fig10, fig11, coarse, rmw,
// nack, queue, victim, penalty, storebuf, robust, service, cm, all. ("all"
// runs the paper reproduction suite; "robust" — the fault-intensity
// degradation sweep — "service" — the open-loop steady-state tail-latency
// study — and "cm" — the contention-management policy-vs-workload matrix —
// are run explicitly.)
//
// -cm POLICY selects the contention-management policy every eliding-scheme
// (SLE/TLR) machine uses to resolve conflicts: timestamp (the paper's
// fair timestamp ordering with request deferral — the default, under which
// output is byte-identical to a build without the policy seam), strict-ts
// (no §3.2 single-block relaxation), requester-wins (always service the
// incoming request), backoff (requester-wins plus seeded exponential restart
// backoff), or karma (priority from accumulated aborted work). -experiment
// cm ignores -cm and sweeps all five policies against the microbenchmarks,
// the application kernels, and the open-loop service workload, reporting
// speedup over BASE, abort rate, fallback rate, and e2e p99 per cell.
//
// Simulated machines are independent deterministic runs, so -jobs N
// executes up to N of them concurrently on host cores (default
// runtime.GOMAXPROCS(0)); output is byte-identical at any -jobs level,
// and -jobs 1 runs strictly sequentially.
//
// -faults SPEC re-runs any experiment under deterministic fault injection
// (grant delays, NACK storms, forced restarts, capacity pressure — see
// internal/fault) to measure degradation; -fault-seed varies the injection
// stream. A run that stops making forward progress fails with a structured
// stall report naming the stalled CPUs and a paste-able reproducer. If a
// functional-checker violation surfaces, the exit status is 2 and the
// violation's kind (txn-read-stale, load-incoherent, rmw-stale) is printed
// on stderr.
//
// -metrics FILE attaches the observability instrument set to every
// simulated machine and writes each run's dump — counters, cycle
// histograms, time-weighted gauges, per-lock contention profiles — to FILE,
// grouped per experiment. The instruments schedule no simulation events, so
// they never alter simulation results; the primary report is byte-identical
// with and without -metrics.
//
// The service experiment (-experiment service) drives an open-loop
// lock-based KV store with deterministic Poisson arrivals and reports
// windowed p50/p99/p999 tail latency (end-to-end and critical-section)
// under BASE, MCS, and TLR. -telemetry FILE streams every closed window
// (JSONL, or CSV when FILE ends in .csv); -windows N sets the window length
// in simulated cycles. -flight N arms an N-event post-mortem flight
// recorder on every machine: when a run stalls or trips the checker, the
// failure report dumps the last N protocol events alongside the per-CPU
// progress ledger. Like -metrics, neither telemetry nor the flight recorder
// alters simulation results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"tlrsim"
)

func main() {
	os.Exit(exitStatus(run(os.Args[1:], os.Stdout), os.Stderr))
}

// exitStatus maps run's error to the process exit code: 0 success, 1
// generic failure, 2 functional-checker violation — the timing model broke
// the memory contract — with the violation's typed kind on stderr so
// scripts triage without parsing the message.
func exitStatus(err error, stderr io.Writer) int {
	if err == nil {
		return 0
	}
	var ve *tlrsim.ViolationError
	if errors.As(err, &ve) {
		fmt.Fprintf(stderr, "tlrsim: checker violation [%v]: %v\n", ve.Kind(), err)
		return 2
	}
	fmt.Fprintln(stderr, "tlrsim:", err)
	return 1
}

// experimentResult is what the experiments return: a rendered report (the
// Report field of either result type), its CSV form and its metrics dumps.
type experimentResult interface {
	CSV() string
	MetricsDumps() string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tlrsim", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment to run: table1, table2, fig8, fig9, fig10, fig11, coarse, rmw, nack, queue, victim, penalty, storebuf, robust, service, cm, all")
		ops        = fs.Float64("ops", 1.0, "operation-count scale factor (1.0 = harness defaults; raise toward paper scale)")
		seed       = fs.Int64("seed", 2002, "random seed (runs are deterministic per seed)")
		procsFlag  = fs.String("procs", "2,4,8,16", "comma-separated processor counts for figure sweeps")
		appProcs   = fs.Int("app-procs", 16, "processor count for the application study (figure 11)")
		format     = fs.String("format", "table", "output format: table or csv")
		jobs       = fs.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = sequential; results are identical at any value)")
		verbose    = fs.Bool("v", false, "print per-job completion lines on stderr")
		metricsOut = fs.String("metrics", "", "attach observability instruments and write per-run dumps to this file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file at exit")
		faultSpec  = fs.String("faults", "", "fault-injection spec applied to every simulated machine (e.g. \"nack=25,abort=10:conflict,cap=16\"; see internal/fault)")
		faultSeed  = fs.Int64("fault-seed", 0, "fault-injector stream seed (overrides seed= in -faults when nonzero)")
		telemetry  = fs.String("telemetry", "", "write the service experiment's per-window telemetry stream to this file (JSONL, or CSV when the name ends in .csv)")
		windows    = fs.Uint64("windows", 100_000, "telemetry tumbling-window length in simulated cycles (service experiment)")
		flight     = fs.Int("flight", 0, "arm an N-event flight recorder on every machine; stall and violation reports dump the ring")
		cmFlag     = fs.String("cm", "timestamp", "contention-management policy for eliding schemes: timestamp, strict-ts, requester-wins, backoff, karma")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	faults, err := tlrsim.ParseFaultSpec(*faultSpec)
	if err != nil {
		return fmt.Errorf("-faults: %v", err)
	}
	if *faultSeed != 0 {
		faults.Seed = *faultSeed
	}
	if *format != "table" && *format != "csv" {
		fs.Usage()
		return fmt.Errorf("unknown -format %q (want table or csv)", *format)
	}
	asCSV := *format == "csv"
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be >= 1")
	}
	if *appProcs < 1 {
		return fmt.Errorf("-app-procs must be >= 1")
	}
	if *telemetry != "" && *experiment != "service" {
		return fmt.Errorf("-telemetry applies only to -experiment service (got %q)", *experiment)
	}
	if *flight < 0 {
		return fmt.Errorf("-flight must be >= 0")
	}
	cm, err := tlrsim.ParseCM(*cmFlag)
	if err != nil {
		return fmt.Errorf("-cm: %v", err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tlrsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tlrsim: -memprofile: %v\n", err)
			}
		}()
	}

	var metricsFile *os.File
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return fmt.Errorf("-metrics: %v", err)
		}
		defer f.Close()
		metricsFile = f
	}

	o := tlrsim.DefaultExperimentOptions()
	o.Ops = *ops
	o.Seed = *seed
	o.AppProcs = *appProcs
	o.Jobs = *jobs
	o.Metrics = metricsFile != nil
	o.Faults = faults
	o.Flight = *flight
	o.CM = cm
	if *verbose {
		o.Progress = func(done, total int, label string, run *tlrsim.Run) {
			fmt.Fprintf(os.Stderr, "tlrsim: [%d/%d] %s: %d cycles\n", done, total, label, run.Cycles)
		}
	}
	o.Procs = nil
	for _, s := range strings.Split(*procsFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			return fmt.Errorf("bad -procs entry %q", s)
		}
		o.Procs = append(o.Procs, p)
	}

	runOne := func(name string) error {
		// report prints an experiment's result, fig11's and every other
		// experiment's alike, and passes err through unwrapped so that
		// exitStatus and callers can still match its type.
		report := func(r experimentResult, err error) error {
			if err != nil {
				return err
			}
			if asCSV {
				fmt.Fprint(stdout, r.CSV())
			} else if ar, ok := r.(*tlrsim.AppExperimentResult); ok {
				fmt.Fprintln(stdout, ar.Report)
			} else {
				fmt.Fprintln(stdout, r.(*tlrsim.ExperimentResult).Report)
			}
			if dumps := r.MetricsDumps(); metricsFile != nil && dumps != "" {
				fmt.Fprintf(metricsFile, "# %s\n%s", name, dumps)
			}
			return nil
		}
		switch name {
		case "table1":
			fmt.Fprintln(stdout, tlrsim.Table1())
		case "table2":
			fmt.Fprintln(stdout, tlrsim.Table2())
		case "fig8":
			return report(tlrsim.Fig8(o))
		case "fig9":
			return report(tlrsim.Fig9(o))
		case "fig10":
			return report(tlrsim.Fig10(o))
		case "fig11":
			return report(tlrsim.Fig11(o))
		case "coarse":
			return report(tlrsim.CoarseVsFine(o))
		case "rmw":
			return report(tlrsim.RMWEffect(o))
		case "nack":
			return report(tlrsim.NackVsDeferral(o))
		case "queue":
			return report(tlrsim.DeferredQueueSweep(o))
		case "victim":
			return report(tlrsim.VictimCacheSweep(o))
		case "penalty":
			return report(tlrsim.RestartPenaltySweep(o))
		case "storebuf":
			return report(tlrsim.StoreBufferEffect(o))
		case "robust":
			return report(tlrsim.RobustnessSweep(o))
		case "service":
			so := tlrsim.DefaultServiceExperimentOptions()
			so.WindowCycles = *windows
			if *telemetry != "" {
				f, err := os.Create(*telemetry)
				if err != nil {
					return fmt.Errorf("-telemetry: %v", err)
				}
				defer f.Close()
				so.Telemetry = f
				so.CSV = strings.HasSuffix(*telemetry, ".csv")
			}
			return report(tlrsim.ServiceSweep(o, so))
		case "cm":
			return report(tlrsim.ContentionMatrix(o))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *experiment == "all" {
		for _, name := range []string{"table1", "table2", "fig8", "fig9", "fig10", "fig11", "coarse", "rmw", "nack", "queue", "victim", "penalty", "storebuf"} {
			if asCSV {
				// Thirteen otherwise-unlabelled blocks: mark which
				// experiment each belongs to.
				fmt.Fprintf(stdout, "# %s\n", name)
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "tlrsim: running %s\n", name)
			}
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*experiment)
}
