package harness

import (
	"bytes"
	"fmt"

	"tlrsim/internal/core"
	"tlrsim/internal/proc"
	"tlrsim/internal/runner"
	"tlrsim/internal/stats"
	"tlrsim/internal/telemetry"
	"tlrsim/internal/workloads"
)

// cmWorkload is one row of the contention matrix: a stable label and a
// workload builder, simulated at o.AppProcs under BASE (the speedup
// denominator) and under TLR with each contention-management policy.
type cmWorkload struct {
	label string
	build func() workloads.Workload
}

// cmWorkloads enumerates the matrix rows: the three microbenchmarks of
// Figures 8-10 (the extremes of the conflict spectrum), the seven Figure 11
// application kernels, and the two open-loop service rates of the
// steady-state study (the only rows with a meaningful end-to-end p99 —
// closed-loop rows have no queueing delay to measure).
func cmWorkloads(o Options) []cmWorkload {
	rows := []cmWorkload{
		{"fig8-multi-counter", func() workloads.Workload {
			return &workloads.MultipleCounter{TotalOps: o.scaled(4096)}
		}},
		{"fig9-single-counter", func() workloads.Workload {
			return &workloads.SingleCounter{TotalOps: o.scaled(2048)}
		}},
		{"fig10-linked-list", func() workloads.Workload {
			return &workloads.LinkedList{TotalOps: o.scaled(1024)}
		}},
	}
	for _, build := range AppSet(o) {
		rows = append(rows, cmWorkload{build().Name(), build})
	}
	return rows
}

// ContentionMatrix runs the policy-vs-workload study: every contention-
// management policy (core.CMs) against every matrix row, each normalized to
// a BASE run of the same workload. Per cell it reports cycles, speedup over
// BASE, abort rate (aborts per speculative start), fallback rate (fallbacks
// per critical-section exit), and — for the open-loop service rows — the
// end-to-end p99 request latency.
//
// All rows run at o.AppProcs, every point on its own warm machine; the
// service rows attach a telemetry recorder per point, exactly as
// ServiceSweep does. Options.CM is ignored: the matrix enumerates the
// policies itself, and its timestamp column must stay the paper's policy.
func ContentionMatrix(o Options) (*Result, error) {
	o.CM = core.CMTimestamp
	cms := core.CMs()
	rows := cmWorkloads(o)
	rates := DefaultServiceOptions().Rates

	// A row's columns: BASE (the speedup denominator), then TLR under
	// each policy.
	names := []string{"BASE"}
	configs := []proc.Config{proc.BaselineConfig(o.AppProcs, proc.Base, o.Seed)}
	for _, cm := range cms {
		cfg := proc.BaselineConfig(o.AppProcs, proc.TLR, o.Seed)
		cfg.Policy.CM = cm
		configs = append(configs, cfg)
		names = append(names, cm.String())
	}
	perRow := len(configs)
	label := func(row string, k int) string {
		return fmt.Sprintf("cm %s %s procs=%d", row, names[k], o.AppProcs)
	}
	var jobs []runner.Job
	for _, row := range rows {
		for k, cfg := range configs {
			jobs = append(jobs, runner.Job{Label: label(row.label, k), Config: o.apply(cfg), Build: row.build})
		}
	}
	// Open-loop service rows: one recorder per point for the e2e tail, of
	// which the matrix keeps only the p99.
	svcP99 := make([]uint64, len(rates)*perRow)
	for rj, rate := range rates {
		for k, cfg := range configs {
			p99 := &svcP99[rj*perRow+k]
			jobs = append(jobs, serviceJob(o, label("service-"+rate.Label, k), cfg, rate,
				telemetry.Config{}, func(r *telemetry.Recorder) {
					e2e, _ := r.Summary()
					*p99 = e2e.P99
				}))
		}
	}
	runs, err := o.pool().Run(jobs)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:     "cm",
		Runs:     make(map[string]map[int]*stats.Run),
		Variants: names,
		KeyCol:   "workload",
	}
	t := &stats.Table{Header: []string{
		"workload", "policy", "cycles", "speedup", "abort%", "fb%", "e2eP99",
	}}
	addRow := func(label string, base *stats.Run, cells []*stats.Run, p99 func(i int) string) {
		res.Runs[label] = map[int]*stats.Run{0: base}
		for i, run := range cells {
			res.Runs[label][i+1] = run
			t.Add(label, cms[i].String(),
				fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%.3f", run.Speedup(base)),
				pct(run.Aborts, run.Starts),
				pct(run.Fallbacks, run.Commits+run.Fallbacks),
				p99(i),
			)
		}
	}
	for ri, row := range rows {
		cells := runs[ri*perRow : (ri+1)*perRow]
		addRow(row.label, cells[0], cells[1:], func(int) string { return "-" })
	}
	svcRuns := runs[len(rows)*perRow:]
	for rj, rate := range rates {
		cells := svcRuns[rj*perRow : (rj+1)*perRow]
		addRow("service-"+rate.Label, cells[0], cells[1:], func(i int) string {
			return fmt.Sprintf("%d", svcP99[rj*perRow+i+1])
		})
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "Contention management: policy-vs-workload matrix at %d processors "+
		"(speedup over BASE; aborts per start; fallbacks per critical-section exit)\n", o.AppProcs)
	b.WriteString(t.String())
	res.Report = b.String()
	return res, nil
}

// pct formats num/den as a percentage, "-" when the denominator is zero.
func pct(num, den uint64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(num)/float64(den))
}
