package harness

import (
	"fmt"
	"testing"
)

// The reuse contract, asserted end to end: every experiment report is
// byte-identical whether machines are constructed cold per point or rewound
// from a warm pool. Reset is exact, so the cold path is the oracle and the
// warm path must reproduce it bit for bit — across seeds, and for ablations
// whose points differ only in reset knobs as well as a plain sweep.
func TestExperimentReportEquivalence(t *testing.T) {
	experiments := []struct {
		name string
		run  func(Options) (*Result, error)
	}{
		{"NackVsDeferral", NackVsDeferral},
		{"DeferredQueueSweep", DeferredQueueSweep},
		{"RestartPenaltySweep", RestartPenaltySweep},
		{"Fig9", Fig9},
	}
	for _, seed := range []int64{1, 2, 42} {
		for _, ex := range experiments {
			t.Run(fmt.Sprintf("%s/seed=%d", ex.name, seed), func(t *testing.T) {
				o := opts()
				o.Seed = seed
				o.Ops = 0.1
				o.Procs = []int{2, 4}
				o.AppProcs = 4

				o.ColdStart = true
				cold, err := ex.run(o)
				if err != nil {
					t.Fatal(err)
				}
				o.ColdStart = false
				warm, err := ex.run(o)
				if err != nil {
					t.Fatal(err)
				}
				if cold.Report != warm.Report {
					t.Errorf("cold and warm reports differ:\n--- cold ---\n%s\n--- warm ---\n%s",
						cold.Report, warm.Report)
				}
				if cold.CSV() != warm.CSV() {
					t.Errorf("cold and warm CSV differ:\n--- cold ---\n%s\n--- warm ---\n%s",
						cold.CSV(), warm.CSV())
				}
			})
		}
	}
}
