package tlrsim_test

// Guards for the observability subsystem's two core promises:
//
//  1. Zero perturbation: attaching metrics or a trace sink never changes
//     simulation results — cycle counts and every aggregate counter are
//     identical with instruments on and off. (The golden-report equivalence
//     tests separately pin the disabled path byte-for-byte.)
//  2. Zero overhead when disabled: with metrics and tracing off, the
//     simulation hot path stays allocation-free per event — the PR 2
//     invariant, now re-asserted with instrumentation sites in place.

import (
	"reflect"
	"strings"
	"testing"

	"tlrsim"
)

func microbenchmarks() map[string]func() tlrsim.Workload {
	return map[string]func() tlrsim.Workload{
		"single-counter":   func() tlrsim.Workload { return tlrsim.Benchmarks.SingleCounter(128) },
		"multiple-counter": func() tlrsim.Workload { return tlrsim.Benchmarks.MultipleCounter(128) },
		"linked-list":      func() tlrsim.Workload { return tlrsim.Benchmarks.LinkedList(128) },
	}
}

// mediumFaults is the robustness ladder's medium rung: at 16 CPUs its TLR
// run forms probe-transit wait cycles that only dry-queue deadlock recovery
// breaks, so it exercises the failure path with instruments armed.
const mediumFaults = "grant=25:25,reorder=10,nack=15,abort=8:conflict,wb=10,cap=24,seed=1"

// TestMetricsDoNotPerturbResults runs each microbenchmark, plus the medium
// fault rung, with and without the instrument set and requires identical
// results and an identical number of fired kernel events: instruments own no
// kernel events, so this is the determinism argument made executable.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	type tcase struct {
		name  string
		cfg   tlrsim.Config
		build func() tlrsim.Workload
	}
	var cases []tcase
	for name, build := range microbenchmarks() {
		for _, scheme := range []tlrsim.Scheme{tlrsim.Base, tlrsim.TLR} {
			cases = append(cases, tcase{name + "/" + scheme.String(), tlrsim.DefaultConfig(4, scheme), build})
		}
	}
	faulted := tlrsim.DefaultConfig(16, tlrsim.TLR)
	faulted.Seed = 2002
	faulted.StallCycles = 2_000_000
	spec, err := tlrsim.ParseFaultSpec(mediumFaults)
	if err != nil {
		t.Fatal(err)
	}
	faulted.Faults = spec
	cases = append(cases, tcase{"single-counter/faults=medium/" + tlrsim.TLR.String(), faulted,
		func() tlrsim.Workload { return tlrsim.Benchmarks.SingleCounter(2048) }})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runOnce := func(metrics bool) (*tlrsim.Run, uint64) {
				cfg := tc.cfg
				cfg.EnableMetrics = metrics
				m, err := tlrsim.RunWorkload(cfg, tc.build())
				if err != nil {
					t.Fatalf("metrics=%t: %v", metrics, err)
				}
				r := tlrsim.Collect(m)
				r.MetricsDump = "" // the only field allowed to differ
				return r, m.K.Fired()
			}
			off, offFired := runOnce(false)
			on, onFired := runOnce(true)
			if !reflect.DeepEqual(off, on) {
				t.Fatalf("metrics changed results:\noff: %+v\non:  %+v", off, on)
			}
			if offFired != onFired {
				t.Fatalf("metrics changed the kernel event count: %d off, %d on", offFired, onFired)
			}
		})
	}
}

// TestMetricsEmitPerLockHistograms is the acceptance check that the
// instrument set actually measures the three microbenchmarks: every dump
// carries the registry sections and at least one ranked lock with a hold
// histogram.
func TestMetricsEmitPerLockHistograms(t *testing.T) {
	for name, build := range microbenchmarks() {
		t.Run(name, func(t *testing.T) {
			cfg := tlrsim.DefaultConfig(4, tlrsim.TLR)
			cfg.EnableMetrics = true
			m, err := tlrsim.RunWorkload(cfg, build())
			if err != nil {
				t.Fatal(err)
			}
			dump := m.Metrics().Dump(uint64(m.K.Now()))
			for _, want := range []string{
				"counters:", "commits", "histograms:", "crit_cycles",
				"retries_per_commit", "gauges (time-weighted", "bus_occupancy",
				"locks (hottest first):", "hold: count=",
			} {
				if !strings.Contains(dump, want) {
					t.Fatalf("dump missing %q:\n%s", want, dump)
				}
			}
			if m.Metrics().CritCycles.Count() == 0 {
				t.Fatal("no critical sections measured")
			}
			if m.Metrics().Commits == 0 {
				t.Fatal("no commits counted")
			}
		})
	}
}

// TestDisabledObservabilityKernelAllocFree re-asserts the PR 2 invariant
// with the instrumentation sites compiled in: a full contended TLR run with
// metrics and tracing disabled performs a bounded, tiny number of
// allocations — machine construction and thread startup only, nothing per
// event. The per-iteration budget is far below one alloc per simulated
// event, so any per-event allocation on the hot path trips it immediately.
func TestDisabledObservabilityKernelAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := tlrsim.RunWorkload(tlrsim.DefaultConfig(4, tlrsim.TLR),
				tlrsim.Benchmarks.SingleCounter(256))
			if err != nil {
				b.Fatal(err)
			}
			if m.Metrics() != nil {
				b.Fatal("metrics attached without EnableMetrics")
			}
		}
	})
	// A 4-CPU SingleCounter(256) run fires hundreds of thousands of kernel
	// events; construction-time allocation is a few thousand objects. One
	// allocation per event would blow through this bound by two orders of
	// magnitude.
	if allocs := res.AllocsPerOp(); allocs > 20000 {
		t.Fatalf("disabled-observability run allocates %d objects/op: hot path is no longer allocation-free", allocs)
	}
}
