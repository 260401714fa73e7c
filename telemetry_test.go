package tlrsim_test

// Guards for the steady-state telemetry subsystem's promises, mirroring
// observability_test.go's for metrics/tracing:
//
//  1. Zero perturbation: attaching a telemetry.Recorder to the service
//     workload never changes simulation results. The recorder schedules no
//     kernel events — windows close lazily on observation — so cycle counts
//     and every aggregate counter are identical with telemetry on and off.
//  2. Post-mortem flight recorder: when a run dies with a ring attached, the
//     StallError report carries the most recent protocol events.
//  3. Determinism: the service experiment's report is byte-identical to the
//     committed golden at the standard seed (regenerate with
//     -update-goldens, shared with equivalence_test.go).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tlrsim"
	"tlrsim/internal/telemetry"
	"tlrsim/internal/workloads"
)

// TestTelemetryDoesNotPerturbResults runs the open-loop service workload
// with and without a telemetry Recorder attached and requires identical
// aggregate results — the perturbation-freedom argument made executable.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	for _, scheme := range []tlrsim.Scheme{tlrsim.Base, tlrsim.MCS, tlrsim.TLR} {
		t.Run(scheme.String(), func(t *testing.T) {
			runOnce := func(withRec bool) (*tlrsim.Run, *telemetry.Recorder) {
				w := &workloads.Service{Requests: 256, MeanGap: 1500, Seed: 5}
				var rec *telemetry.Recorder
				if withRec {
					rec = telemetry.NewRecorder(telemetry.Config{WindowCycles: 20_000})
					w.Rec = rec
				}
				m, err := tlrsim.RunWorkload(tlrsim.DefaultConfig(4, scheme), w)
				if err != nil {
					t.Fatal(err)
				}
				rec.Finish(uint64(m.Cycles()))
				return tlrsim.Collect(m), rec
			}
			off, _ := runOnce(false)
			on, rec := runOnce(true)
			if !reflect.DeepEqual(off, on) {
				t.Fatalf("telemetry changed results:\noff: %+v\non:  %+v", off, on)
			}
			if e2e, _ := rec.Summary(); e2e.Count == 0 {
				t.Fatal("recorder observed nothing")
			}
		})
	}
}

// TestFlightRecorderDumpOnStall forces an event-budget stall on a machine
// with the flight-recorder ring armed and requires the structured report to
// carry the ring dump alongside the per-CPU progress ledger.
func TestFlightRecorderDumpOnStall(t *testing.T) {
	cfg := tlrsim.DefaultConfig(4, tlrsim.TLR)
	cfg.MaxEvents = 20_000
	cfg.TraceCapacity = 24
	_, err := tlrsim.RunWorkload(cfg, tlrsim.Benchmarks.SingleCounter(1<<20))
	var se *tlrsim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError, got %v", err)
	}
	if !strings.Contains(se.Flight, "flight recorder (last 24 of") {
		t.Fatalf("StallError.Flight missing ring dump:\n%s", se.Flight)
	}
	msg := err.Error()
	if !strings.Contains(msg, "flight recorder (last") || !strings.Contains(msg, "t=") {
		t.Fatalf("rendered report missing flight events:\n%s", msg)
	}
	// The dump sits between the per-CPU ledger and the reproducer block.
	if strings.Index(msg, "flight recorder") > strings.Index(msg, "reproduce:") {
		t.Fatalf("flight dump rendered after reproducer:\n%s", msg)
	}
}

// TestFlightRecorderOffByDefault: without TraceCapacity the same stall
// report carries no flight section — the disabled path stays inert.
func TestFlightRecorderOffByDefault(t *testing.T) {
	cfg := tlrsim.DefaultConfig(4, tlrsim.TLR)
	cfg.MaxEvents = 20_000
	_, err := tlrsim.RunWorkload(cfg, tlrsim.Benchmarks.SingleCounter(1<<20))
	var se *tlrsim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError, got %v", err)
	}
	if se.Flight != "" || strings.Contains(err.Error(), "flight recorder") {
		t.Fatalf("flight dump present without a ring:\n%s", err.Error())
	}
}

// TestServiceReportEquivalence pins the service experiment's full report
// (table and CSV) to committed goldens at the standard seed — the same
// determinism gate the paper experiments run behind.
func TestServiceReportEquivalence(t *testing.T) {
	o := tlrsim.DefaultExperimentOptions()
	o.Ops = 0.25
	for _, format := range []string{"table", "csv"} {
		t.Run(format, func(t *testing.T) {
			res, err := tlrsim.ServiceSweep(o, tlrsim.DefaultServiceExperimentOptions())
			if err != nil {
				t.Fatal(err)
			}
			got := res.Report + "\n"
			if format == "csv" {
				got = res.CSV()
			}
			golden := filepath.Join("testdata", fmt.Sprintf("service_seed%d_%s.golden", o.Seed, format))
			if *updateGoldens {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output differs from %s (len got %d, want %d); first divergence at byte %d",
					golden, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}
