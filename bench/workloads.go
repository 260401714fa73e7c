package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"time"

	"tlrsim"
	"tlrsim/internal/litmus"
)

// scale sizes the workloads. A rep is kept to a few seconds so that one run
// of --seconds holds enough reps for a steady median.
type scale struct {
	paperOps    float64 // ExperimentOptions.Ops of the paper suite
	cmOps       float64 // ExperimentOptions.Ops of the contention matrix
	litmusShape litmus.Shape
	litmusSeeds int     // machine seeds per (program, scheme)
	listOps     int     // LinkedList pairs on the 16-CPU machine
	serviceOps  float64 // ExperimentOptions.Ops of the service sweep
	robustOps   float64 // ExperimentOptions.Ops of the fault ladder
}

// fullScale is what the benchmark measures. paper-suite and cm-matrix stay
// at Ops <= 1 because mp3d fails its coherence check from Ops 2.5
// (README.md, Known failures).
var fullScale = scale{
	paperOps:    0.2,
	cmOps:       0.3,
	litmusShape: litmus.Shape{CPUs: 2, Locs: 2, MaxOps: 3},
	litmusSeeds: 1,
	listOps:     16384,
	serviceOps:  1,
	robustOps:   0.5,
}

// workload is one set of inputs the benchmark runs. prepare generates the
// inputs from the seed outside the timed region and returns the timed body,
// which calls the simulator's public entry points.
type workload struct {
	name    string
	why     string
	prepare func(r *recorder, seed int64, sc scale) func() error
}

var workloads = []*workload{
	{
		name: "paper-suite",
		why: "the 11 experiments of tlrsim -experiment all, what users run to reproduce the paper; " +
			"BASE, SLE and MCS spin loops on the bus and caches dominate",
		prepare: preparePaperSuite,
	},
	{
		name: "cm-matrix",
		why: "ContentionMatrix: five of six columns elide locks, so the TLR engine, contention policies " +
			"and snapshot/fork do far more work than in paper-suite",
		prepare: prepareCMMatrix,
	},
	{
		name: "litmus-sweep",
		why: "litmus.Check on tiny 2-CPU machines: Machine.Reset, the scripted thread runtime and the " +
			"reference model dominate, not the cost per simulated cycle",
		prepare: prepareLitmus,
	},
	{
		name: "machine-16p",
		why: "one 16-CPU TLR machine on LinkedList: the steady-state hot loop with no construction, fork " +
			"or harness work, and the only workload with kernel-event counters",
		prepare: prepareMachine16p,
	},
	{
		name: "observed",
		why: "ServiceSweep with metrics, telemetry and the flight recorder armed, then the fault ladder: " +
			"the only workload that runs the instrument and fault layers",
		prepare: prepareObserved,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// paperSuite is tlrsim -experiment all without the two static tables.
var paperSuite = []struct {
	name string
	run  func(tlrsim.ExperimentOptions) error
}{
	{"tlrsim.Fig8", dropResult(tlrsim.Fig8)},
	{"tlrsim.Fig9", dropResult(tlrsim.Fig9)},
	{"tlrsim.Fig10", dropResult(tlrsim.Fig10)},
	{"tlrsim.Fig11", dropResult(tlrsim.Fig11)},
	{"tlrsim.CoarseVsFine", dropResult(tlrsim.CoarseVsFine)},
	{"tlrsim.RMWEffect", dropResult(tlrsim.RMWEffect)},
	{"tlrsim.NackVsDeferral", dropResult(tlrsim.NackVsDeferral)},
	{"tlrsim.DeferredQueueSweep", dropResult(tlrsim.DeferredQueueSweep)},
	{"tlrsim.VictimCacheSweep", dropResult(tlrsim.VictimCacheSweep)},
	{"tlrsim.RestartPenaltySweep", dropResult(tlrsim.RestartPenaltySweep)},
	{"tlrsim.StoreBufferEffect", dropResult(tlrsim.StoreBufferEffect)},
}

// dropResult adapts an experiment to the error-only form the suite runs:
// every machine already reached the recorder through Progress.
func dropResult[T any](f func(tlrsim.ExperimentOptions) (T, error)) func(tlrsim.ExperimentOptions) error {
	return func(o tlrsim.ExperimentOptions) error {
		_, err := f(o)
		return err
	}
}

func preparePaperSuite(r *recorder, seed int64, sc scale) func() error {
	o := r.options(seed, sc.paperOps)
	return func() error {
		for _, e := range paperSuite {
			if err := r.experiment(e.name, func() error { return e.run(o) }); err != nil {
				return err
			}
		}
		return nil
	}
}

func prepareCMMatrix(r *recorder, seed int64, sc scale) func() error {
	o := r.options(seed, sc.cmOps)
	return func() error {
		return r.experiment("tlrsim.ContentionMatrix", func() error {
			_, err := tlrsim.ContentionMatrix(o)
			return err
		})
	}
}

func prepareLitmus(r *recorder, seed int64, sc scale) func() error {
	var progs []litmus.Program
	r.call("input", "litmus.Enumerate", func() error {
		progs, _ = litmus.Enumerate(sc.litmusShape)
		return nil
	})
	seeds := make([]int64, sc.litmusSeeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	opts := litmus.Options{Shape: sc.litmusShape, Seeds: seeds, Jobs: 1, Progress: r.programDone}
	return func() error {
		var rep *litmus.Report
		r.call("entry", "litmus.Check", func() error {
			rep = litmus.Check(opts)
			return nil
		})
		r.attempted += rep.Runs
		r.failed += rep.TotalDivergences
		c := r.counters
		c["litmus.programs"] = float64(rep.Programs)
		c["litmus.machine_runs"] = float64(rep.Runs)
		c["litmus.ref_outcomes"] = float64(rep.RefOutcomes)
		c["litmus.observed_outcomes"] = float64(rep.ObservedOutcomes)
		c["litmus.divergences"] = float64(rep.TotalDivergences)
		r.hash(rep.EnumStats, rep.Programs, rep.Runs, rep.RefOutcomes, rep.ObservedOutcomes, rep.TotalDivergences)
		if rep.Programs != len(progs) {
			return fmt.Errorf("litmus.Check ran %d programs, Enumerate gave %d", rep.Programs, len(progs))
		}
		if !rep.Ok() {
			return fmt.Errorf("litmus: %d divergences, first: %v", rep.TotalDivergences, rep.Divergences[0])
		}
		return nil
	}
}

func prepareMachine16p(r *recorder, seed int64, sc scale) func() error {
	cfg := tlrsim.DefaultConfig(16, tlrsim.TLR)
	cfg.Seed = seed
	var m *tlrsim.Machine
	r.call("input", "tlrsim.NewMachine", func() error {
		m = tlrsim.NewMachine(cfg)
		return nil
	})
	w := tlrsim.Benchmarks.LinkedList(sc.listOps)
	return func() error {
		start := time.Now()
		r.attempted++
		steps := []struct {
			name string
			fn   func() error
		}{
			{"Workload.Setup", func() error { w.Setup(m); return nil }},
			{"Machine.Run", func() error {
				progs := make([]func(*tlrsim.TC), len(m.CPUs))
				for i := range progs {
					progs[i] = w.Program(i)
				}
				return m.Run(progs)
			}},
			{"System.CheckCoherence", m.Sys.CheckCoherence},
			{"Machine.CheckerErr", m.CheckerErr},
			{"Workload.Validate", func() error { return w.Validate(m) }},
			{"tlrsim.Collect", func() error { r.addRun(tlrsim.Collect(m)); return nil }},
		}
		for _, s := range steps {
			if err := r.call("entry", s.name, s.fn); err != nil {
				r.failed++
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		r.items = append(r.items, ms(time.Since(start)))
		c := r.counters
		c["harness.machines"]++
		c["sim.events"] = float64(m.K.Fired())
		c["bus.arb_stall_cycles"] = float64(m.Sys.Bus.Stats().ArbStalls)
		for _, cpu := range m.CPUs {
			c["proc.ops"] += float64(cpu.Stats().Ops)
			cs := cpu.Ctrl().Stats()
			c["coherence.nacks_sent"] += float64(cs.NacksSent)
			c["coherence.chained_requests"] += float64(cs.ChainedRequests)
		}
		r.hash(c["sim.events"], c["proc.ops"], c["bus.arb_stall_cycles"], c["coherence.nacks_sent"], c["coherence.chained_requests"])
		return nil
	}
}

// prepareObserved leaves metrics off the fault ladder: with metrics armed the
// ladder's medium rung stalls (README.md, Known failures).
func prepareObserved(r *recorder, seed int64, sc scale) func() error {
	so := tlrsim.DefaultServiceExperimentOptions()
	windows := &countingWriter{}
	so.Telemetry = windows
	service := r.options(seed, sc.serviceOps)
	service.Metrics = true
	service.Flight = 256
	robust := r.options(seed, sc.robustOps)
	robust.Flight = 256
	return func() error {
		if err := r.experiment("tlrsim.ServiceSweep", func() error {
			_, err := tlrsim.ServiceSweep(service, so)
			return err
		}); err != nil {
			return err
		}
		r.counters["telemetry.window_bytes"] = float64(windows.n)
		return r.experiment("tlrsim.RobustnessSweep", func() error {
			_, err := tlrsim.RobustnessSweep(robust)
			return err
		})
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// recorder collects what one rep measures: deterministic counters and their
// digest, per-machine (or per-program) durations, named span totals and, on
// the traced rep, the spans themselves.
type recorder struct {
	traced    bool
	origin    time.Time
	spans     []span
	timings   map[string]float64
	counters  map[string]float64
	digest    hash.Hash64
	items     []float64
	itemStart time.Time
	attempted int
	failed    int
}

type span struct {
	cat, name  string
	start, dur time.Duration
}

func newRecorder(traced bool) *recorder {
	return &recorder{
		traced:   traced,
		origin:   time.Now(),
		timings:  map[string]float64{},
		counters: map[string]float64{},
		digest:   fnv.New64a(),
	}
}

// options returns the experiment options every harness workload uses: one
// machine at a time, with each completed machine reported to the recorder.
func (r *recorder) options(seed int64, ops float64) tlrsim.ExperimentOptions {
	o := tlrsim.DefaultExperimentOptions()
	o.Seed = seed
	o.Ops = ops
	o.Jobs = 1
	o.Progress = r.machineDone
	return o
}

// call times fn as a span and adds its duration to the named timing.
func (r *recorder) call(cat, name string, fn func() error) error {
	start := time.Now()
	r.itemStart = start
	err := fn()
	d := time.Since(start)
	r.timings[name] += d.Seconds()
	r.addSpan(cat, name, start, d)
	return err
}

// experiment calls one harness entry point. Machines that completed were
// counted by machineDone; a failing entry point stops at its failing machine.
func (r *recorder) experiment(name string, fn func() error) error {
	err := r.call("entry", name, fn)
	if err != nil {
		r.attempted++
		r.failed++
	}
	return err
}

// machineDone is the harness Progress callback. With Jobs = 1 the machines
// run one after another, so the interval since the previous callback is this
// machine's host time, except in a fork group: its machines report together
// when the group ends, and the first carries the group's time.
func (r *recorder) machineDone(_, _ int, label string, run *tlrsim.Run) {
	now := time.Now()
	r.items = append(r.items, ms(now.Sub(r.itemStart)))
	r.addSpan("machine", label, r.itemStart, now.Sub(r.itemStart))
	r.itemStart = now
	r.attempted++
	r.counters["harness.machines"]++
	r.addRun(run)
}

// programDone is the litmus Progress callback, one call per program.
func (r *recorder) programDone(done, _ int) {
	now := time.Now()
	r.items = append(r.items, ms(now.Sub(r.itemStart)))
	if r.traced {
		r.addSpan("program", fmt.Sprintf("program %d", done-1), r.itemStart, now.Sub(r.itemStart))
	}
	r.itemStart = now
}

// addRun adds one machine's stats.Run to the counters and the digest.
func (r *recorder) addRun(run *tlrsim.Run) {
	c := r.counters
	c["sim.cycles"] += float64(run.Cycles)
	c["bus.txns"] += float64(run.BusTxns)
	c["bus.data_msgs"] += float64(run.DataMsgs)
	c["bus.markers"] += float64(run.Markers)
	c["bus.probes"] += float64(run.Probes)
	c["cache.accesses"] += float64(run.Loads + run.Stores)
	c["cache.misses"] += float64(run.Misses)
	c["cache.upgrades"] += float64(run.Upgrades)
	c["cache.writebacks"] += float64(run.Writebacks)
	c["core.starts"] += float64(run.Starts)
	c["core.commits"] += float64(run.Commits)
	c["core.aborts"] += float64(run.Aborts)
	c["core.fallbacks"] += float64(run.Fallbacks)
	c["core.deferrals"] += float64(run.Deferrals)
	c["core.defer_overflows"] += float64(run.DeferOverflows)
	c["proc.busy_cycles"] += float64(run.Busy)
	c["proc.lock_stall_cycles"] += float64(run.LockStall)
	c["proc.data_stall_cycles"] += float64(run.DataStall)
	c["proc.deadlock_recoveries"] += float64(run.DeadlockRecoveries)
	c["proc.max_retries"] = max(c["proc.max_retries"], float64(run.MaxRetries))
	fs := run.FaultStats
	c["fault.injected"] += float64(fs.GrantDelays + fs.Reorders + fs.Nacks + fs.Aborts +
		fs.WBRefusals + fs.VictimFulls + fs.MsgDelays)
	c["metrics.dump_bytes"] += float64(len(run.MetricsDump))
	r.hash(run)
}

// hash folds values into the digest through their JSON encoding, which
// covers every exported stats.Run field and sorts map keys.
func (r *recorder) hash(vs ...any) {
	b, err := json.Marshal(vs)
	if err != nil {
		panic(err) // only plain numbers and stats structs reach here
	}
	r.digest.Write(b)
}

func (r *recorder) addSpan(cat, name string, start time.Time, d time.Duration) {
	if r.traced {
		r.spans = append(r.spans, span{cat: cat, name: name, start: start.Sub(r.origin), dur: d})
	}
}

// writeSpans writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Spans on one thread nest by time: entry points contain machines.
func (r *recorder) writeSpans(path string) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.name, Cat: s.cat, Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3, Pid: 1, Tid: 1}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
