package tlrsim

import (
	"tlrsim/internal/harness"
	"tlrsim/internal/workloads"
)

// ExperimentOptions configures the paper-evaluation experiments.
type ExperimentOptions = harness.Options

// ExperimentResult is a processor-count sweep result (Figures 8-10 and the
// ablation experiments).
type ExperimentResult = harness.Result

// AppExperimentResult is the Figure 11 application study result.
type AppExperimentResult = harness.AppResult

// DefaultExperimentOptions returns the standard experiment configuration:
// processor sweep 2-16, applications at 16 processors, harness-scaled
// operation counts.
func DefaultExperimentOptions() ExperimentOptions { return harness.DefaultOptions() }

// Fig8 regenerates Figure 8 (multiple-counter: coarse-grain, no conflicts).
func Fig8(o ExperimentOptions) (*ExperimentResult, error) { return harness.Fig8(o) }

// Fig9 regenerates Figure 9 (single-counter: fine-grain, high conflict,
// including the TLR-strict-ts ablation).
func Fig9(o ExperimentOptions) (*ExperimentResult, error) { return harness.Fig9(o) }

// Fig10 regenerates Figure 10 (doubly-linked list: dynamic conflicts).
func Fig10(o ExperimentOptions) (*ExperimentResult, error) { return harness.Fig10(o) }

// Fig11 regenerates Figure 11 and the §6.3 per-application speedups.
func Fig11(o ExperimentOptions) (*AppExperimentResult, error) { return harness.Fig11(o) }

// CoarseVsFine regenerates the §6.3 coarse-grain vs fine-grain mp3d study.
func CoarseVsFine(o ExperimentOptions) (*ExperimentResult, error) { return harness.CoarseVsFine(o) }

// RMWEffect regenerates the §6.3 read-modify-write predictor study.
func RMWEffect(o ExperimentOptions) (*ExperimentResult, error) { return harness.RMWEffect(o) }

// NackVsDeferral compares the two ownership-retention policies of §3:
// request deferral (the paper's choice) versus NACK-and-retry.
func NackVsDeferral(o ExperimentOptions) (*ExperimentResult, error) {
	return harness.NackVsDeferral(o)
}

// DeferredQueueSweep varies the hardware deferred-request queue (Figure 5).
func DeferredQueueSweep(o ExperimentOptions) (*ExperimentResult, error) {
	return harness.DeferredQueueSweep(o)
}

// VictimCacheSweep varies the victim cache extending the §3.3 speculative
// footprint guarantee.
func VictimCacheSweep(o ExperimentOptions) (*ExperimentResult, error) {
	return harness.VictimCacheSweep(o)
}

// RestartPenaltySweep varies the misspeculation recovery cost.
func RestartPenaltySweep(o ExperimentOptions) (*ExperimentResult, error) {
	return harness.RestartPenaltySweep(o)
}

// StoreBufferEffect quantifies the TSO store buffer on BASE and TLR.
func StoreBufferEffect(o ExperimentOptions) (*ExperimentResult, error) {
	return harness.StoreBufferEffect(o)
}

// RobustnessSweep measures graceful degradation under the fault-intensity
// ladder: single-counter under SLE and TLR from a clean baseline through
// escalating deterministic injection, reporting slowdown, fallback rate,
// worst retry depth, and fired-injection counts per rung.
func RobustnessSweep(o ExperimentOptions) (*ExperimentResult, error) {
	return harness.RobustnessSweep(o)
}

// ServiceExperimentOptions configures the open-loop service experiment
// (window length, arrival rates, optional window-stream export).
type ServiceExperimentOptions = harness.ServiceOptions

// ServiceRate is one open-loop arrival-rate point.
type ServiceRate = harness.ServiceRate

// DefaultServiceExperimentOptions returns the standard two-rate service
// sweep (moderate and heavy load).
func DefaultServiceExperimentOptions() ServiceExperimentOptions {
	return harness.DefaultServiceOptions()
}

// ServiceSweep runs the steady-state service experiment: an open-loop
// lock-based KV store under deterministic Poisson arrivals at each rate
// under BASE, MCS, and TLR, with windowed tail-latency telemetry
// (p50/p99/p999 of end-to-end and critical-section latency per tumbling
// window, steady-state detection, optional JSONL/CSV window stream).
func ServiceSweep(o ExperimentOptions, so ServiceExperimentOptions) (*ExperimentResult, error) {
	return harness.ServiceSweep(o, so)
}

// ContentionMatrix runs the contention-management policy-vs-workload study:
// every policy (CMs) against the Figure 8-10 microbenchmarks, the Figure 11
// application kernels, and the open-loop service workload at both arrival
// rates, each cell normalized to a BASE run of the same workload and
// reporting speedup, abort rate, fallback rate, and (for service rows) the
// end-to-end p99 request latency. ExperimentOptions.CM is ignored — the
// matrix enumerates the policies itself.
func ContentionMatrix(o ExperimentOptions) (*ExperimentResult, error) {
	return harness.ContentionMatrix(o)
}

// Table1 renders the benchmark inventory (paper Table 1).
func Table1() string { return harness.Table1() }

// Table2 renders the simulated machine parameters (paper Table 2).
func Table2() string { return harness.Table2() }

// Benchmarks exposes the paper's workloads for custom studies.
var Benchmarks = struct {
	MultipleCounter func(totalOps int) Workload
	SingleCounter   func(totalOps int) Workload
	LinkedList      func(totalOps int) Workload
	Barnes          func(bodies int) Workload
	Cholesky        func(tasks int) Workload
	MP3D            func(steps int, coarse bool) Workload
	Radiosity       func(tasks int) Workload
	WaterNsq        func(mols int) Workload
	OceanCont       func(sweeps int) Workload
	Raytrace        func(rays int) Workload
	ReadHeavy       func(rounds int) Workload
	RandomMix       func(iters int, seed int64) Workload
}{
	MultipleCounter: func(n int) Workload { return &workloads.MultipleCounter{TotalOps: n} },
	SingleCounter:   func(n int) Workload { return &workloads.SingleCounter{TotalOps: n} },
	LinkedList:      func(n int) Workload { return &workloads.LinkedList{TotalOps: n} },
	Barnes:          func(n int) Workload { return &workloads.Barnes{Bodies: n, Levels: 3, Branch: 4, Work: 600} },
	Cholesky: func(n int) Workload {
		return &workloads.Cholesky{Tasks: n, Cols: 24, BigCols: 1, ColWords: 24, Work: 900}
	},
	MP3D: func(n int, coarse bool) Workload {
		return &workloads.MP3D{Steps: n, Cells: 2048, Work: 60, Coarse: coarse}
	},
	Radiosity: func(n int) Workload { return &workloads.Radiosity{Tasks: n, Work: 1500} },
	WaterNsq:  func(n int) Workload { return &workloads.WaterNsq{Mols: n, Work: 700} },
	OceanCont: func(n int) Workload { return &workloads.OceanCont{Sweeps: n, Work: 9000} },
	Raytrace:  func(n int) Workload { return &workloads.Raytrace{Rays: n, ChunkSize: 4, Work: 700} },
	ReadHeavy: func(n int) Workload { return &workloads.ReadHeavy{Rounds: n} },
	RandomMix: func(n int, seed int64) Workload { return &workloads.RandomMix{Iters: n, Seed: seed} },
}
