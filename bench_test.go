package tlrsim_test

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark runs the corresponding experiment workload at a fixed size and
// reports, alongside the host-time metrics, the SIMULATED parallel cycle
// count as "simcycles" — the quantity the paper's figures plot. Shapes
// (scheme orderings, crossovers) are asserted by the test suite; the
// benchmarks regenerate the underlying series.

import (
	"fmt"
	"runtime"
	"testing"

	"tlrsim"
	"tlrsim/internal/telemetry"
	"tlrsim/internal/workloads"
)

// benchWorkload runs one (workload, scheme, procs) configuration per
// iteration and reports the simulated cycles of the final run plus the
// simulator's throughput as host-nanoseconds per simulated cycle —
// comparable across workloads and machines, unlike raw ns/op.
func benchWorkload(b *testing.B, procs int, scheme tlrsim.Scheme, build func() tlrsim.Workload) {
	b.Helper()
	var cycles, total uint64
	for i := 0; i < b.N; i++ {
		m, err := tlrsim.RunWorkload(tlrsim.DefaultConfig(procs, scheme), build())
		if err != nil {
			b.Fatal(err)
		}
		cycles = uint64(m.Cycles())
		total += cycles
	}
	b.ReportMetric(float64(cycles), "simcycles")
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/simcycle")
	}
}

// BenchmarkTable2Config measures machine construction with the paper's
// Table 2 parameters (16 CPUs, caches, bus, predictors).
func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := tlrsim.NewMachine(tlrsim.DefaultConfig(16, tlrsim.TLR))
		if len(m.CPUs) != 16 {
			b.Fatal("bad machine")
		}
	}
}

// BenchmarkFig7Queue: the queued data transfer of Figure 7 — four
// processors hammering one line inside transactions; the queue forms on the
// data itself with no restarts.
func BenchmarkFig7Queue(b *testing.B) {
	benchWorkload(b, 4, tlrsim.TLR, func() tlrsim.Workload {
		return tlrsim.Benchmarks.SingleCounter(512)
	})
}

// Figure 8: multiple-counter (coarse-grain/no-conflicts) at 16 processors.
func BenchmarkFig8MultipleCounter(b *testing.B) {
	for _, s := range []tlrsim.Scheme{tlrsim.Base, tlrsim.MCS, tlrsim.SLE, tlrsim.TLR} {
		b.Run(s.String(), func(b *testing.B) {
			benchWorkload(b, 16, s, func() tlrsim.Workload {
				return tlrsim.Benchmarks.MultipleCounter(2048)
			})
		})
	}
}

// Figure 9: single-counter (fine-grain/high-conflict) at 16 processors,
// including the TLR-strict-ts ablation.
func BenchmarkFig9SingleCounter(b *testing.B) {
	for _, s := range []tlrsim.Scheme{tlrsim.Base, tlrsim.MCS, tlrsim.SLE, tlrsim.TLR, tlrsim.TLRStrictTS} {
		b.Run(s.String(), func(b *testing.B) {
			benchWorkload(b, 16, s, func() tlrsim.Workload {
				return tlrsim.Benchmarks.SingleCounter(1024)
			})
		})
	}
}

// Figure 10: doubly-linked list (fine-grain/dynamic-conflicts) at 16
// processors.
func BenchmarkFig10LinkedList(b *testing.B) {
	for _, s := range []tlrsim.Scheme{tlrsim.Base, tlrsim.MCS, tlrsim.SLE, tlrsim.TLR} {
		b.Run(s.String(), func(b *testing.B) {
			benchWorkload(b, 16, s, func() tlrsim.Workload {
				return tlrsim.Benchmarks.LinkedList(512)
			})
		})
	}
}

// Figure 11: the seven applications at 16 processors under BASE and TLR
// (the two bars whose ratio is the §6.3 headline speedup).
func BenchmarkFig11Apps(b *testing.B) {
	apps := []struct {
		name  string
		build func() tlrsim.Workload
	}{
		{"ocean-cont", func() tlrsim.Workload { return tlrsim.Benchmarks.OceanCont(64) }},
		{"water-nsq", func() tlrsim.Workload { return tlrsim.Benchmarks.WaterNsq(384) }},
		{"raytrace", func() tlrsim.Workload { return tlrsim.Benchmarks.Raytrace(640) }},
		{"radiosity", func() tlrsim.Workload { return tlrsim.Benchmarks.Radiosity(448) }},
		{"barnes", func() tlrsim.Workload { return tlrsim.Benchmarks.Barnes(448) }},
		{"cholesky", func() tlrsim.Workload { return tlrsim.Benchmarks.Cholesky(120) }},
		{"mp3d", func() tlrsim.Workload { return tlrsim.Benchmarks.MP3D(3072, false) }},
	}
	for _, app := range apps {
		for _, s := range []tlrsim.Scheme{tlrsim.Base, tlrsim.TLR} {
			b.Run(app.name+"/"+s.String(), func(b *testing.B) {
				benchWorkload(b, 16, s, app.build)
			})
		}
	}
}

// The §6.3 coarse-grain vs fine-grain experiment: mp3d with one lock.
func BenchmarkCoarseVsFine(b *testing.B) {
	for _, c := range []struct {
		name   string
		scheme tlrsim.Scheme
		coarse bool
	}{
		{"BASE-fine", tlrsim.Base, false},
		{"TLR-fine", tlrsim.TLR, false},
		{"TLR-coarse", tlrsim.TLR, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchWorkload(b, 16, c.scheme, func() tlrsim.Workload {
				return tlrsim.Benchmarks.MP3D(2048, c.coarse)
			})
		})
	}
}

// The §6.3 read-modify-write predictor study: BASE with and without the
// collapsing predictor on the most predictor-sensitive kernel.
func BenchmarkRMWPredictor(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := tlrsim.DefaultConfig(16, tlrsim.Base)
				cfg.UseRMWPredictor = on
				m, err := tlrsim.RunWorkload(cfg, tlrsim.Benchmarks.Cholesky(96))
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(m.Cycles())
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkExperimentAll runs the full evaluation sweep (Figures 8-11, the
// coarse-vs-fine and RMW studies, and all five ablations) at a reduced
// operation scale, sequentially (jobs=1) and across eight workers (jobs=8).
// The experiments enumerate independent simulated machines, so on a >= 8
// core host the jobs=8 variant should finish at least ~2x faster at
// identical simulated results; on fewer cores it measures nothing and skips.
func BenchmarkExperimentAll(b *testing.B) {
	experiments := []struct {
		name string
		run  func(tlrsim.ExperimentOptions) error
	}{
		{"fig8", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.Fig8(o); return err }},
		{"fig9", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.Fig9(o); return err }},
		{"fig10", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.Fig10(o); return err }},
		{"fig11", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.Fig11(o); return err }},
		{"coarse", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.CoarseVsFine(o); return err }},
		{"rmw", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.RMWEffect(o); return err }},
		{"nack", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.NackVsDeferral(o); return err }},
		{"queue", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.DeferredQueueSweep(o); return err }},
		{"victim", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.VictimCacheSweep(o); return err }},
		{"penalty", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.RestartPenaltySweep(o); return err }},
		{"storebuf", func(o tlrsim.ExperimentOptions) error { _, err := tlrsim.StoreBufferEffect(o); return err }},
	}
	for _, jobs := range []int{1, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			if jobs > runtime.NumCPU() {
				b.Skipf("%d workers on %d host CPUs", jobs, runtime.NumCPU())
			}
			o := tlrsim.DefaultExperimentOptions()
			o.Ops = 0.25
			o.Jobs = jobs
			for i := 0; i < b.N; i++ {
				for _, e := range experiments {
					if err := e.run(o); err != nil {
						b.Fatalf("%s: %v", e.name, err)
					}
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (host time per
// simulated cycle) on a representative contended workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var total uint64
	for i := 0; i < b.N; i++ {
		m, err := tlrsim.RunWorkload(tlrsim.DefaultConfig(8, tlrsim.TLR),
			tlrsim.Benchmarks.SingleCounter(512))
		if err != nil {
			b.Fatal(err)
		}
		total += uint64(m.Cycles())
	}
	b.ReportMetric(float64(total)/float64(b.N), "simcycles")
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/simcycle")
	}
}

// BenchmarkSimulatorThroughputObservability measures what the observability
// subsystem costs: the same contended workload with instruments off (the
// default every experiment runs with — this variant is the standing guard
// that disabled observability stays free) and with the full instrument set
// attached (counters, histograms, time-weighted gauges, per-lock profiles).
// The instruments own no kernel events, so both variants simulate the same
// cycles; the off-vs-on ns/simcycle ratio is the instrument overhead
// BENCH_<n>.json tracks.
func BenchmarkSimulatorThroughputObservability(b *testing.B) {
	for _, metrics := range []bool{false, true} {
		name := "off"
		if metrics {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var total uint64
			for i := 0; i < b.N; i++ {
				cfg := tlrsim.DefaultConfig(8, tlrsim.TLR)
				cfg.EnableMetrics = metrics
				m, err := tlrsim.RunWorkload(cfg, tlrsim.Benchmarks.SingleCounter(512))
				if err != nil {
					b.Fatal(err)
				}
				total += uint64(m.Cycles())
			}
			b.ReportMetric(float64(total)/float64(b.N), "simcycles")
			if total > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/simcycle")
			}
		})
	}
}

// BenchmarkFaultInjection measures what deterministic fault injection
// costs: the same contended workload clean ("off" — the standing guard
// that the disabled injector's nil-check hooks stay free) and under the
// robustness ladder's medium composite spec ("on"). The off-vs-on
// simcycles delta is the simulated-time price of the injected adversity
// (grant delays, NACKs, forced restarts) and the ns/simcycle pair is the
// host-time overhead BENCH_<n>.json tracks as the faulted-vs-clean delta.
func BenchmarkFaultInjection(b *testing.B) {
	spec, err := tlrsim.ParseFaultSpec("grant=25:25,reorder=10,nack=15,abort=8:conflict,wb=10,cap=24,seed=1")
	if err != nil {
		b.Fatal(err)
	}
	for _, faulted := range []bool{false, true} {
		name := "off"
		if faulted {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var total uint64
			for i := 0; i < b.N; i++ {
				cfg := tlrsim.DefaultConfig(8, tlrsim.TLR)
				if faulted {
					cfg.Faults = spec
					cfg.StallCycles = 2_000_000
				}
				m, err := tlrsim.RunWorkload(cfg, tlrsim.Benchmarks.SingleCounter(512))
				if err != nil {
					b.Fatal(err)
				}
				total += uint64(m.Cycles())
			}
			b.ReportMetric(float64(total)/float64(b.N), "simcycles")
			if total > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/simcycle")
			}
		})
	}
}

// BenchmarkTelemetry measures what windowed tail-latency telemetry costs on
// the open-loop service workload: recorder detached ("off" — the standing
// guard that a nil Recorder stays one pointer test per request) and attached
// with default windows ("on" — per-request histogram observes plus amortised
// window closes). The off-vs-on ns/simcycle delta is the telemetry overhead
// BENCH_<n>.json tracks.
func BenchmarkTelemetry(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var total uint64
			for i := 0; i < b.N; i++ {
				w := &workloads.Service{Requests: 1024, MeanGap: 1200, Seed: 5}
				if enabled {
					w.Rec = telemetry.NewRecorder(telemetry.Config{})
				}
				m, err := tlrsim.RunWorkload(tlrsim.DefaultConfig(8, tlrsim.TLR), w)
				if err != nil {
					b.Fatal(err)
				}
				w.Rec.Finish(uint64(m.Cycles()))
				total += uint64(m.Cycles())
			}
			b.ReportMetric(float64(total)/float64(b.N), "simcycles")
			if total > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/simcycle")
			}
		})
	}
}
