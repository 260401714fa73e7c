package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlrsim"
	"tlrsim/internal/checker"
)

func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"experiment", []string{"-experiment", "nope"}, `unknown experiment "nope"`},
		{"procs", []string{"-experiment", "fig8", "-procs", "2,x"}, `bad -procs entry "x"`},
		{"jobs", []string{"-jobs", "0"}, "-jobs must be >= 1"},
		{"app-procs", []string{"-experiment", "fig11", "-app-procs", "0"}, "-app-procs must be >= 1"},
		{"coldstart-removed", []string{"-coldstart"}, "flag provided but not defined: -coldstart"},
		{"faults-key", []string{"-faults", "bogus=5"}, "-faults:"},
		{"faults-value", []string{"-faults", "nack=notanumber"}, "-faults:"},
		{"faults-range", []string{"-faults", "nack=150"}, "-faults:"},
		{"format", []string{"-format", "nope"}, `unknown -format "nope"`},
		{"telemetry-non-service", []string{"-experiment", "fig8", "-telemetry", "w.jsonl"}, "-telemetry applies only to -experiment service"},
		{"flight-negative", []string{"-flight", "-2"}, "-flight must be >= 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got err %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestRunStaticTables(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "table2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 2: simulated machine parameters") {
		t.Fatalf("missing table 2:\n%s", out.String())
	}
}

func TestRunExperimentTableAndCSV(t *testing.T) {
	args := []string{"-experiment", "fig8", "-ops", "0.05", "-procs", "2,4"}
	var table bytes.Buffer
	if err := run(args, &table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "Figure 8") {
		t.Fatalf("missing report title:\n%s", table.String())
	}
	var csv bytes.Buffer
	if err := run(append(args, "-format", "csv"), &csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "procs,") {
		t.Fatalf("missing CSV header:\n%s", csv.String())
	}
}

func TestRunMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.txt")
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig9", "-ops", "0.05", "-procs", "2", "-metrics", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"# fig9", "counters:", "histograms:", "crit_cycles", "locks (hottest first):", "hold: count="} {
		if !strings.Contains(s, want) {
			t.Fatalf("metrics file missing %q:\n%s", want, s)
		}
	}
	// The primary report must be byte-identical with and without -metrics.
	var plain bytes.Buffer
	if err := run([]string{"-experiment", "fig9", "-ops", "0.05", "-procs", "2"}, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.String() != out.String() {
		t.Fatalf("-metrics changed the report:\n--- without ---\n%s--- with ---\n%s", plain.String(), out.String())
	}
}

// TestExitStatus pins the process exit contract: 0 on success, 1 on
// generic failure, 2 on a functional-checker violation with the
// violation's typed kind on stderr — even when the violation arrives
// wrapped inside a joined error chain, as runs produce it.
func TestExitStatus(t *testing.T) {
	ve := &tlrsim.ViolationError{
		Count: 3,
		First: checker.Violation{Kind: checker.RMWStale, CPU: 2, Got: 7, Want: 9},
	}
	cases := []struct {
		name       string
		err        error
		code       int
		wantStderr string
	}{
		{"success", nil, 0, ""},
		{"generic", errors.New("boom"), 1, "tlrsim: boom"},
		{"violation", ve, 2, "checker violation [rmw-stale]"},
		{"wrapped-violation", fmt.Errorf("fig9: %w", errors.Join(errors.New("stall"), ve)), 2, "checker violation [rmw-stale]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := exitStatus(c.err, &stderr); code != c.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantStderr) {
				t.Fatalf("stderr %q, want containing %q", stderr.String(), c.wantStderr)
			}
		})
	}
}

// TestRunServiceTelemetry exercises the service experiment end to end: the
// report renders, the -telemetry JSONL stream parses with monotone
// quantiles, and the primary report is byte-identical with and without the
// stream attached.
func TestRunServiceTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "windows.jsonl")
	args := []string{"-experiment", "service", "-ops", "0.1", "-app-procs", "4"}
	var out bytes.Buffer
	if err := run(append(args, "-telemetry", path), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Open-loop service") {
		t.Fatalf("missing report title:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("telemetry stream too short:\n%s", data)
	}
	for _, line := range lines {
		var w struct {
			Label string                          `json:"label"`
			E2E   struct{ P50, P99, P999 uint64 } `json:"e2e"`
		}
		if err := json.Unmarshal([]byte(line), &w); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if w.Label == "" {
			t.Fatalf("line missing label: %q", line)
		}
		if !(w.E2E.P50 <= w.E2E.P99 && w.E2E.P99 <= w.E2E.P999) {
			t.Fatalf("quantiles not monotone: %q", line)
		}
	}
	// The primary report must be byte-identical without -telemetry.
	var plain bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.String() != out.String() {
		t.Fatalf("-telemetry changed the report:\n--- without ---\n%s--- with ---\n%s", plain.String(), out.String())
	}
}

// TestRunServiceCSVTelemetry pins the .csv extension switching the window
// stream format.
func TestRunServiceCSVTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "windows.csv")
	var out bytes.Buffer
	if err := run([]string{"-experiment", "service", "-ops", "0.1", "-app-procs", "4", "-telemetry", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "window,start,end,e2e_count") {
		t.Fatalf("CSV stream missing header:\n%.200s", data)
	}
}

// TestRunFlightDoesNotChangeReport pins the flight recorder's
// perturbation-freedom through the CLI: arming the ring records events
// without scheduling any, so the report stays byte-identical.
func TestRunFlightDoesNotChangeReport(t *testing.T) {
	args := []string{"-experiment", "fig8", "-ops", "0.05", "-procs", "2"}
	var plain, armed bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-flight", "64"), &armed); err != nil {
		t.Fatal(err)
	}
	if plain.String() != armed.String() {
		t.Fatalf("-flight changed the report:\n--- without ---\n%s--- with ---\n%s", plain.String(), armed.String())
	}
}

// TestRunFaultedExperiment exercises the -faults/-fault-seed plumbing end
// to end on a small sweep: the run must terminate cleanly and the report
// must render despite injected adversity.
func TestRunFaultedExperiment(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-experiment", "fig8", "-ops", "0.05", "-procs", "2",
		"-faults", "nack=20,abort=5:conflict,cap=16", "-fault-seed", "7"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 8") {
		t.Fatalf("missing report title:\n%s", out.String())
	}
}

// TestRunFig11KeepsTypedError pins that a fig11 failure reaches the caller
// with its type intact, like every other experiment's: this faulted run
// stalls, and the watchdog's StallError must still match errors.As (so a
// checker violation in fig11 would also exit 2, not 1).
func TestRunFig11KeepsTypedError(t *testing.T) {
	err := run([]string{"-experiment", "fig11", "-ops", "0.05", "-app-procs", "4",
		"-faults", "abort=90:conflict,nack=90"}, io.Discard)
	if err == nil {
		t.Fatal("expected the faulted fig11 run to stall")
	}
	var stall *tlrsim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("errors.As found no *StallError in %T: %v", err, err)
	}
}
