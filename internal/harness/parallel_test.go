package harness

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"tlrsim/internal/stats"
)

// The runner's determinism contract: an experiment's rendered Report and
// CSV are byte-identical whether its machines run sequentially or across
// eight workers.
func TestParallelEquivalence(t *testing.T) {
	for _, ex := range []struct {
		name string
		run  func(Options) (*Result, error)
	}{
		{"Fig9", Fig9},
		{"NackVsDeferral", NackVsDeferral},
	} {
		t.Run(ex.name, func(t *testing.T) {
			o := opts()
			o.Ops = 0.1
			o.Procs = []int{2, 4}

			o.Jobs = 1
			seq, err := ex.run(o)
			if err != nil {
				t.Fatal(err)
			}
			o.Jobs = 8
			par, err := ex.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Report != par.Report {
				t.Errorf("-jobs 1 and -jobs 8 reports differ:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.Report, par.Report)
			}
			if seq.CSV() != par.CSV() {
				t.Errorf("-jobs 1 and -jobs 8 CSV differ:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.CSV(), par.CSV())
			}
		})
	}
}

// With one worker, machines run and report in enumeration order, so a
// progress stream (and anything timed from it) follows the experiment's own
// point order.
func TestSequentialProgressOrder(t *testing.T) {
	o := opts()
	o.Ops = 0.05
	o.Procs = []int{2, 4}
	o.Jobs = 1
	var got []string
	o.Progress = func(_, _ int, label string, _ *stats.Run) { got = append(got, label) }
	if _, err := NackVsDeferral(o); err != nil {
		t.Fatal(err)
	}
	want := []string{"deferral procs=2", "deferral procs=4", "NACK procs=2", "NACK procs=4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("progress labels %q, want enumeration order %q", got, want)
	}
}

// The variant experiments must not render their sentinel 0/1 map keys as a
// procs column: the CSV carries labelled variant columns instead.
func TestVariantCSV(t *testing.T) {
	o := opts()
	o.Ops = 0.05
	o.AppProcs = 2
	r, err := RMWEffect(o)
	if err != nil {
		t.Fatal(err)
	}
	csv := r.CSV()
	header := strings.SplitN(csv, "\n", 2)[0]
	if header != "app,BASE-no-opt,BASE" {
		t.Errorf("RMWEffect CSV header = %q, want labelled variants", header)
	}
	if strings.Contains(header, "procs") {
		t.Errorf("RMWEffect CSV still has a procs column:\n%s", csv)
	}
	for _, line := range strings.Split(strings.TrimRight(csv, "\n"), "\n")[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != 3 || cells[1] == "" || cells[2] == "" {
			t.Errorf("RMWEffect CSV row %q should carry both variant cycle counts", line)
		}
	}
	if !strings.Contains(csv, "mp3d") {
		t.Errorf("RMWEffect CSV rows should be keyed by app name:\n%s", csv)
	}
}

// Progress callbacks arrive once per machine with a total covering the
// whole enumeration.
func TestProgressReporting(t *testing.T) {
	o := opts()
	o.Ops = 0.05
	o.Procs = []int{2, 4}
	o.Jobs = 4
	var mu sync.Mutex
	calls := 0
	var total int
	o.Progress = func(done, tot int, label string, run *stats.Run) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		total = tot
	}
	r, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	want := len(microSchemes) * len(o.Procs)
	if calls != want || total != want {
		t.Errorf("progress: %d calls with total %d, want %d", calls, total, want)
	}
	if r.Get("BASE", 2) == nil {
		t.Error("result missing after progress-instrumented run")
	}
}
