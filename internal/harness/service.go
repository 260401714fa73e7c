package harness

import (
	"bytes"
	"fmt"
	"io"

	"tlrsim/internal/proc"
	"tlrsim/internal/runner"
	"tlrsim/internal/stats"
	"tlrsim/internal/telemetry"
	"tlrsim/internal/workloads"
)

// ServiceRate is one open-loop arrival-rate point: a stable label and the
// mean per-CPU inter-arrival gap in cycles (smaller gap = heavier load).
type ServiceRate struct {
	Label   string
	MeanGap uint64
}

// ServiceOptions configures the steady-state service experiment.
type ServiceOptions struct {
	// WindowCycles is the telemetry tumbling-window length (default 100_000).
	WindowCycles uint64
	// Rates are the arrival-rate points (default DefaultServiceOptions').
	Rates []ServiceRate
	// Telemetry, when non-nil, receives the full per-window stream of every
	// (rate, scheme) point, concatenated in enumeration order under
	// "# label" comment headers. Format is JSONL unless CSV is set.
	Telemetry io.Writer
	// CSV selects CSV window export instead of JSON Lines.
	CSV bool
}

// DefaultServiceOptions returns the standard two-rate sweep: a moderate load
// the store absorbs with idle slack, and a heavy load near saturation where
// queueing dominates the tail.
func DefaultServiceOptions() ServiceOptions {
	return ServiceOptions{
		Rates: []ServiceRate{
			{Label: "moderate", MeanGap: 4000},
			{Label: "heavy", MeanGap: 1200},
		},
	}
}

func (so ServiceOptions) withDefaults() ServiceOptions {
	if so.WindowCycles == 0 {
		so.WindowCycles = 100_000
	}
	if len(so.Rates) == 0 {
		so.Rates = DefaultServiceOptions().Rates
	}
	return so
}

// serviceSchemes are the lock schemes the service experiment compares: the
// paper's baseline, the best software queue lock, and TLR.
var serviceSchemes = []proc.Scheme{proc.Base, proc.MCS, proc.TLR}

// ServiceSweep runs the open-loop service workload (deterministic Poisson
// arrivals into a Zipf-contended lock-based KV store, internal/workloads
// Service) at each arrival rate under BASE, MCS, and TLR, with windowed tail
// telemetry attached to every point. The report carries one summary row per
// point — end-of-run and steady-state p50/p99/p999 of both end-to-end
// (queueing included) and critical-section latency — followed by each
// point's per-window recorder report. Points are enumerated up front and
// results (including the telemetry streams) are assembled in enumeration
// order, so output is byte-identical at any Options.Jobs.
func ServiceSweep(o Options, so ServiceOptions) (*Result, error) {
	so = so.withDefaults()
	n := len(so.Rates) * len(serviceSchemes)
	jobs := make([]runner.Job, 0, n)
	recs := make([]*telemetry.Recorder, n)
	streams := make([]bytes.Buffer, n)
	for _, rate := range so.Rates {
		for _, scheme := range serviceSchemes {
			i := len(jobs)
			label := fmt.Sprintf("service %s %v procs=%d", rate.Label, scheme, o.AppProcs)
			tcfg := telemetry.Config{WindowCycles: so.WindowCycles}
			if so.Telemetry != nil {
				if so.CSV {
					tcfg.Sink = telemetry.NewCSVWindows(&streams[i])
				} else {
					j := telemetry.NewJSONLWindows(&streams[i])
					j.Label = label
					tcfg.Sink = j
				}
			}
			jobs = append(jobs, serviceJob(o, label, proc.BaselineConfig(o.AppProcs, scheme, o.Seed), rate, tcfg,
				func(r *telemetry.Recorder) { recs[i] = r }))
		}
	}
	runs, err := o.pool().Run(jobs)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:     "service",
		Runs:     make(map[string]map[int]*stats.Run),
		Variants: schemeLabels(serviceSchemes),
		KeyCol:   "rate",
	}
	t := &stats.Table{Header: []string{
		"rate", "scheme", "cycles", "reqs", "steady@",
		"e2e p50/p99/p999", "cs p50/p99/p999",
		"steady e2e p50/p99/p999",
	}}
	i := 0
	for _, rate := range so.Rates {
		res.Runs[rate.Label] = make(map[int]*stats.Run)
		for vi := range serviceSchemes {
			run := runs[i]
			rec := recs[i]
			i++
			res.Runs[rate.Label][vi] = run
			e2e, cs := rec.Summary()
			steady := "-"
			steadyCell := "-"
			if rec.SteadyAt() >= 0 {
				steady = fmt.Sprintf("w%d", rec.SteadyAt())
				se, _ := rec.SteadySummary()
				steadyCell = fmt.Sprintf("%d/%d/%d", se.P50, se.P99, se.P999)
			}
			t.Add(rate.Label, serviceSchemes[vi].String(),
				fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%d", e2e.Count),
				steady,
				fmt.Sprintf("%d/%d/%d", e2e.P50, e2e.P99, e2e.P999),
				fmt.Sprintf("%d/%d/%d", cs.P50, cs.P99, cs.P999),
				steadyCell,
			)
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "Open-loop service: tail latency at %d processors, %d requests (latencies in cycles)\n",
		o.AppProcs, o.scaled(serviceRequests))
	b.WriteString(t.String())
	for i, j := range jobs {
		fmt.Fprintf(&b, "\n== %s ==\n%s", j.Label, recs[i].Report())
	}
	res.Report = b.String()

	if so.Telemetry != nil {
		for i, j := range jobs {
			if so.CSV {
				if _, err := fmt.Fprintf(so.Telemetry, "# %s\n%s", j.Label, streams[i].Bytes()); err != nil {
					return nil, fmt.Errorf("telemetry write: %w", err)
				}
				continue
			}
			if _, err := fmt.Fprintf(so.Telemetry, "%s", streams[i].Bytes()); err != nil {
				return nil, fmt.Errorf("telemetry write: %w", err)
			}
		}
	}
	return res, nil
}

// serviceRequests is the open-loop request count at Ops 1.
const serviceRequests = 4096

// serviceJob is the runner job of one open-loop service point: the Service
// workload at rate on cfg (with o's machine options applied) and a fresh
// telemetry recorder attached, finished at the run's last cycle and passed
// to done, which keeps what it needs of it. A window sink in tcfg is closed
// after the run.
func serviceJob(o Options, label string, cfg proc.Config, rate ServiceRate, tcfg telemetry.Config, done func(*telemetry.Recorder)) runner.Job {
	requests := o.scaled(serviceRequests)
	return runner.Job{
		Label:  label,
		Config: o.apply(cfg),
		Run: func(m *proc.Machine) error {
			r := telemetry.NewRecorder(tcfg)
			w := &workloads.Service{Requests: requests, MeanGap: rate.MeanGap, Seed: o.Seed, Rec: r}
			if err := workloads.RunOn(m, w); err != nil {
				return err
			}
			r.Finish(uint64(m.Cycles()))
			if c, ok := tcfg.Sink.(io.Closer); ok {
				if err := c.Close(); err != nil {
					return fmt.Errorf("telemetry export: %w", err)
				}
			}
			done(r)
			return nil
		},
	}
}

func schemeLabels(schemes []proc.Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.String()
	}
	return out
}
