package harness

import (
	"fmt"

	"tlrsim/internal/fault"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// robustnessLadder is the fault-intensity sweep RobustnessSweep runs: a
// clean baseline followed by composite specs of escalating adversity across
// every protocol seam (arbitration delay and reordering, NACK storms,
// forced restarts, write-buffer and victim-cache pressure, timestamp skew,
// marker/probe delay). Probabilistic intensities stay below 100 so
// termination is almost sure; the restart cap bounds per-attempt retries
// where the adversity is relentless, escalating to fallback acquisition —
// the §3.3 degradation path under stress. All rungs share one injector seed
// so the ladder varies intensity, not stream.
var robustnessLadder = []struct{ label, spec string }{
	{"off", ""},
	{"low", "grant=10:20,nack=5,abort=3:conflict,cap=24,seed=1"},
	{"medium", "grant=25:25,reorder=10,nack=15,abort=8:conflict,wb=10,cap=24,seed=1"},
	{"high", "grant=40:40,reorder=25,nack=30,abort=15:conflict,wb=20,victim=25,skew=100000,msg=25:40,cap=24,seed=1"},
}

// RobustnessSweep measures graceful degradation under injected adversity:
// the single-counter workload (fine-grain/high-conflict — the elision
// stress case of Figure 9) at AppProcs processors under SLE and TLR, swept
// up the fault-intensity ladder. The report tracks how throughput decays
// and how the machine absorbs each rung: slowdown versus the clean
// baseline, commit/abort/fallback counts, the fallback rate, the worst
// per-attempt retry depth (bounded by the ladder's restart cap), and the
// injector's fired counters.
//
// Every faulted point runs with the forward-progress watchdog armed; a
// point that stalls fails the sweep with its structured StallError (and
// paste-able reproducer) instead of appearing in the table, so a rendered
// report certifies zero undiagnosed stalls at every intensity.
func RobustnessSweep(o Options) (*Result, error) {
	schemes := []proc.Scheme{proc.SLE, proc.TLR}
	total := o.scaled(2048)
	build := func() workloads.Workload { return &workloads.SingleCounter{TotalOps: total} }
	var points []point
	for _, rung := range robustnessLadder {
		fs, err := fault.ParseSpec(rung.spec)
		if err != nil {
			return nil, fmt.Errorf("robustness ladder %q: %w", rung.label, err)
		}
		for _, scheme := range schemes {
			cfg := proc.BaselineConfig(o.AppProcs, scheme, o.Seed)
			cfg.Faults = fs
			points = append(points, point{
				label: fmt.Sprintf("faults=%s %v procs=%d", rung.label, scheme, o.AppProcs),
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
		Name:     "robustness",
		Runs:     make(map[string]map[int]*stats.Run),
		Variants: make([]string, len(schemes)),
		KeyCol:   "faults",
	}
	for i, s := range schemes {
		res.Variants[i] = s.String()
	}
	t := &stats.Table{Header: []string{
		"faults", "scheme", "cycles", "slowdown", "commits", "aborts", "fallbacks", "fb%", "maxRetries", "recov", "injected",
	}}
	clean := make(map[proc.Scheme]*stats.Run)
	i := 0
	for _, rung := range robustnessLadder {
		res.Runs[rung.label] = make(map[int]*stats.Run)
		for vi, scheme := range schemes {
			run := runs[i]
			i++
			res.Runs[rung.label][vi] = run
			if rung.label == "off" {
				clean[scheme] = run
			}
			fbRate := 0.0
			if n := run.Commits + run.Fallbacks; n > 0 {
				fbRate = 100 * float64(run.Fallbacks) / float64(n)
			}
			t.Add(rung.label, scheme.String(),
				fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%.3f", float64(run.Cycles)/float64(clean[scheme].Cycles)),
				fmt.Sprintf("%d", run.Commits),
				fmt.Sprintf("%d", run.Aborts),
				fmt.Sprintf("%d", run.Fallbacks),
				fmt.Sprintf("%.1f", fbRate),
				fmt.Sprintf("%d", run.MaxRetries),
				fmt.Sprintf("%d", run.DeadlockRecoveries),
				run.FaultStats.String(),
			)
		}
	}
	res.Report = fmt.Sprintf("Robustness: single-counter at %d processors under the fault-intensity ladder\n%s"+
		"stalls: none — every point terminated; a watchdog stall aborts the sweep with its structured report\n",
		o.AppProcs, t.String())
	return res, nil
}
