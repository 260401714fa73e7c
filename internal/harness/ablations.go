package harness

import (
	"fmt"

	"tlrsim/internal/core"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// The ablation experiments quantify the design choices DESIGN.md calls out:
// deferral vs NACK retention (§3's two ownership-retention policies), the
// deferred-queue size (Figure 5's hardware queue), the victim cache (§3.3
// resource guarantees), and the misspeculation restart penalty.

// policyConfig returns the TLR machine with a configuration mutation
// applied — the shape every ablation point takes.
func policyConfig(o Options, procs int, pol func(*proc.Config)) proc.Config {
	cfg := MachineConfig(procs, proc.TLR, o.Seed)
	pol(&cfg)
	return cfg
}

// NackVsDeferral compares the paper's deferral-based ownership retention
// with the NACK-based alternative (§3: "NACK-based and deferral-based
// techniques are contrasted elsewhere") on the high-conflict single
// counter. Expected shape: deferral wins — the deferred requester's data
// arrives exactly at the winner's commit, while NACKed requesters re-inject
// retry traffic and add round-trip latency.
func NackVsDeferral(o Options) (*Result, error) {
	total := o.scaled(2048)
	build := func() workloads.Workload { return &workloads.SingleCounter{TotalOps: total} }
	labels := []string{"deferral", "NACK"}
	var points []point
	for li, nack := range []bool{false, true} {
		for _, p := range o.Procs {
			points = append(points, point{
				label: fmt.Sprintf("%s procs=%d", labels[li], p),
				cfg: policyConfig(o, p, func(c *proc.Config) {
					c.Policy = core.DefaultPolicy()
					c.Policy.RetentionNACK = nack
				}),
				build: build,
			})
		}
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "nack-vs-deferral", Runs: make(map[string]map[int]*stats.Run)}
	t := &stats.Table{Header: []string{"retention", "procs", "cycles", "aborts", "busTxns"}}
	i := 0
	for _, label := range labels {
		res.Runs[label] = make(map[int]*stats.Run)
		for _, p := range o.Procs {
			run := runs[i]
			i++
			res.Runs[label][p] = run
			t.Add(label, fmt.Sprintf("%d", p), fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%d", run.Aborts), fmt.Sprintf("%d", run.BusTxns))
		}
	}
	res.Report = "Ownership retention: deferral vs NACK (single-counter)\n" + t.String()
	return res, nil
}

// DeferredQueueSweep varies the hardware deferred-request queue size
// (Figure 5). Too small a queue forces Service decisions (restarts) under
// fan-in; the default 16 suffices for 16 processors.
func DeferredQueueSweep(o Options) (*Result, error) {
	rounds := o.scaled(256)
	procs := o.AppProcs
	sizes := []int{1, 2, 4, 8, 16}
	var points []point
	for _, size := range sizes {
		points = append(points, point{
			label: fmt.Sprintf("size=%d", size),
			cfg: policyConfig(o, procs, func(c *proc.Config) {
				c.Policy = core.DefaultPolicy()
				c.Policy.MaxDeferred = size
			}),
			build: func() workloads.Workload { return &workloads.ReadHeavy{Rounds: rounds} },
		})
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "deferred-queue", Runs: make(map[string]map[int]*stats.Run)}
	t := &stats.Table{Header: []string{"queueSize", "cycles", "aborts", "deferrals"}}
	for i, size := range sizes {
		run := runs[i]
		res.Runs[fmt.Sprintf("defer=%d", size)] = map[int]*stats.Run{procs: run}
		t.Add(fmt.Sprintf("%d", size), fmt.Sprintf("%d", run.Cycles),
			fmt.Sprintf("%d", run.Aborts), fmt.Sprintf("%d", run.Deferrals))
	}
	res.Report = fmt.Sprintf("Deferred-queue size sweep at %d processors (read-heavy fan-in)\n%s",
		procs, t.String())
	return res, nil
}

// VictimCacheSweep varies the victim cache that extends the speculative
// footprint guarantee (§3.3/§4): transactions whose data set exceeds
// ways+victim in one set must fall back to the lock.
func VictimCacheSweep(o Options) (*Result, error) {
	procs := 4
	entrySet := []int{0, 4, 16}
	var points []point
	for _, entries := range entrySet {
		points = append(points, point{
			label: fmt.Sprintf("victim=%d", entries),
			cfg: policyConfig(o, procs, func(c *proc.Config) {
				c.Coherence.Cache.VictimEntries = entries
			}),
			build: func() workloads.Workload {
				// Eight same-set lines per transaction: beyond a 4-way set
				// without a victim cache, within the guarantee with one.
				return &workloads.ReadSet{Txns: o.scaled(64), LinesPerTxn: 8}
			},
		})
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "victim-cache", Runs: make(map[string]map[int]*stats.Run)}
	t := &stats.Table{Header: []string{"victimEntries", "cycles", "resourceAborts", "fallbacks", "abortsByReason"}}
	for i, entries := range entrySet {
		run := runs[i]
		res.Runs[fmt.Sprintf("victim=%d", entries)] = map[int]*stats.Run{procs: run}
		t.Add(fmt.Sprintf("%d", entries), fmt.Sprintf("%d", run.Cycles),
			fmt.Sprintf("%d", run.AbortsByReason["resource"]), fmt.Sprintf("%d", run.Fallbacks),
			run.AbortReasonsString())
	}
	res.Report = "Victim-cache sweep (8 same-set lines per transaction)\n" + t.String()
	return res, nil
}

// RestartPenaltySweep varies the misspeculation recovery cost.
func RestartPenaltySweep(o Options) (*Result, error) {
	total := o.scaled(1024)
	procs := o.AppProcs
	penalties := []uint64{1, 10, 100, 1000}
	var points []point
	for _, pen := range penalties {
		points = append(points, point{
			label: fmt.Sprintf("penalty=%d", pen),
			cfg: policyConfig(o, procs, func(c *proc.Config) {
				c.RestartPenalty = pen
				c.Policy = core.DefaultPolicy()
				c.Policy.StrictTimestamps = true // strict mode restarts more; the penalty matters
			}),
			build: func() workloads.Workload { return &workloads.SingleCounter{TotalOps: total} },
		})
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "restart-penalty", Runs: make(map[string]map[int]*stats.Run)}
	t := &stats.Table{Header: []string{"penalty", "cycles", "aborts"}}
	for i, pen := range penalties {
		run := runs[i]
		res.Runs[fmt.Sprintf("penalty=%d", pen)] = map[int]*stats.Run{procs: run}
		t.Add(fmt.Sprintf("%d", pen), fmt.Sprintf("%d", run.Cycles), fmt.Sprintf("%d", run.Aborts))
	}
	res.Report = "Misspeculation restart-penalty sweep (strict-ts single-counter)\n" + t.String()
	return res, nil
}

// StoreBufferEffect quantifies the TSO store buffer (Table 2's aggressive
// TSO implementation) on BASE and TLR: buffered plain stores hide the lock
// release and critical-section store latencies that the blocking model
// serialises — one of the two reasons our BASE is slower relative to TLR
// than the paper's out-of-order BASE (EXPERIMENTS.md).
func StoreBufferEffect(o Options) (*Result, error) {
	variants := []string{"blocking", "buffered"}
	schemes := []proc.Scheme{proc.Base, proc.TLR}
	builders := AppSet(o)
	var points []point
	var rows []struct {
		app    string
		scheme proc.Scheme
	}
	for _, build := range builders {
		name := build().Name()
		for _, scheme := range schemes {
			rows = append(rows, struct {
				app    string
				scheme proc.Scheme
			}{name, scheme})
			for vi, v := range variants {
				cfg := MachineConfig(o.AppProcs, scheme, o.Seed)
				if vi == 1 {
					cfg.Coherence.StoreBufferEntries = 64
				}
				points = append(points, point{
					label: fmt.Sprintf("%s/%v: %s procs=%d", name, scheme, v, o.AppProcs),
					cfg:   cfg,
					build: build,
				})
			}
		}
	}
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:     "store-buffer",
		Runs:     make(map[string]map[int]*stats.Run),
		Variants: variants,
	}
	t := &stats.Table{Header: []string{"app", "scheme", "blocking", "buffered", "speedup"}}
	for i, row := range rows {
		off, on := runs[2*i], runs[2*i+1]
		res.Runs[row.app+"/"+row.scheme.String()] = map[int]*stats.Run{0: off, 1: on}
		t.Add(row.app, row.scheme.String(), fmt.Sprintf("%d", off.Cycles),
			fmt.Sprintf("%d", on.Cycles), fmt.Sprintf("%.3f", on.Speedup(off)))
	}
	res.Report = "TSO store buffer effect (blocking vs 64-entry buffered stores)\n" + t.String()
	return res, nil
}
