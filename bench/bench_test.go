package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"tlrsim/internal/litmus"
)

// smokeScale runs every workload in about a second, even under -race.
var smokeScale = scale{
	paperOps:    0.01,
	cmOps:       0.01,
	litmusShape: litmus.Shape{CPUs: 2, Locs: 1, MaxOps: 2},
	litmusSeeds: 1,
	listOps:     64,
	serviceOps:  0.02,
	robustOps:   0.02,
}

// smokeRep runs one rep in-process. The process-level measurements a parent
// takes of a child (CPU time, peak RSS, set-up) get stand-in values.
func smokeRep(t *testing.T, w *workload, traced bool) *rep {
	t.Helper()
	res := measureRep(w, 1, smokeScale, newRecorder(traced))
	if res.Error != "" {
		t.Fatalf("%s: %s", w.name, res.Error)
	}
	res.PeakRSSMB = 1
	return &rep{childResult: res, CPUS: res.WallS, SetupS: 1e-3}
}

// benchmarkJSON is the declaration file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("BENCHMARK.json command %v, paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the benchmark's default %d", bj.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%v\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced, and checks that the two reps agree, that the report prints every
// declared metric with its unit, and that only observed arms the instrument
// and fault layers.
func TestWorkloadsSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traced := smokeRep(t, w, true)
			o := summarize(w.name, 1, []*rep{smokeRep(t, w, false)}, traced,
				map[string]float64{"sim.self_s": traced.WallS}, nil)
			if !o.Correct || o.Attempted == 0 {
				t.Fatalf("correct=%t attempted=%d errors=%v", o.Correct, o.Attempted, o.Errors)
			}
			for _, tc := range []struct {
				traced bool
				want   []metric
			}{{false, bj.EndToEnd}, {true, bj.PerLayer}} {
				var buf bytes.Buffer
				o.print(&buf, host{}, tc.traced)
				text := strings.TrimSpace(buf.String())
				var got struct {
					Metrics map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &got); err != nil {
					t.Fatal(err)
				}
				if len(got.Metrics) != len(tc.want) {
					t.Errorf("trace=%t: JSON has %d metrics, want %d", tc.traced, len(got.Metrics), len(tc.want))
				}
				for _, m := range tc.want {
					g, ok := got.Metrics[m.Name]
					if !ok || g.Value == nil || g.Unit != m.Unit {
						t.Errorf("trace=%t: metric %s printed as %+v, want unit %s", tc.traced, m.Name, g, m.Unit)
					}
					if !strings.Contains(text, m.Name+" ") {
						t.Errorf("trace=%t: metric %s missing from the text report", tc.traced, m.Name)
					}
				}
			}
			armed := w.name == "observed"
			for _, name := range []string{"metrics.dump_bytes", "telemetry.window_bytes", "fault.injected"} {
				if v := o.PerLayer[name]; (v > 0) != armed {
					t.Errorf("%s = %v on %s", name, v, w.name)
				}
			}
		})
	}
}

// TestProfileAttribution profiles in-process reps and checks that every
// sample is charged to a declared per-layer metric and that the simulator's
// layers are recognised. (Under -race most samples sit in the race runtime,
// so the share asked of them is small.)
func TestProfileAttribution(t *testing.T) {
	w, err := findWorkload("machine-16p")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	sc := smokeScale
	sc.listOps = 4096
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		measureRep(w, 1, sc, newRecorder(false))
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range samples {
		total += float64(s.ns) / 1e9
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	var sum, sim float64
	for name, s := range attribute(samples) {
		if !declared[name] {
			t.Errorf("samples charged to undeclared metric %s", name)
		}
		sum += s
		if !strings.HasPrefix(name, "runtime.") && name != "bench.self_s" {
			sim += s
		}
	}
	if total == 0 || sum < total*0.999 || sum > total*1.001 {
		t.Fatalf("attributed %.3fs of %.3fs sampled", sum, total)
	}
	if sim < total/10 {
		t.Errorf("simulator layers got %.3fs of %.3fs", sim, total)
	}
}

func TestVerdict(t *testing.T) {
	wall := endToEnd[0]
	ten := func(base, step float64) []float64 {
		vs := make([]float64, 10)
		for i := range vs {
			vs[i] = base + step*float64(i%3)
		}
		return vs
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"gain", ten(1, 0.01), ten(0.8, 0.01), "better"},
		{"gain on too few pairs", []float64{1, 1.01}, []float64{0.8, 0.81}, "no regression"},
		{"within bound", ten(1, 0.01), ten(1.1, 0.01), "no regression"},
		{"regression", ten(1, 0.01), ten(1.3, 0.01), "worse (regression)"},
		{"noisy baseline", ten(1, 0.4), ten(1.1, 0.4), "unresolved (A's spread exceeds the bound)"},
	} {
		if _, _, got := verdict(wall, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompare checks that -compare refuses results from another host and
// lists counters that changed as simulated work that changed.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	h := host{Go: "go1", NProc: 2, GOMAXPROCS: 1, CPU: "cpu"}
	doc := func(h host, cycles float64) string {
		d := document{Host: h, Seconds: 20, Outcomes: []*outcome{{
			Workload: "machine-16p", Seed: 1, Digest: "d",
			EndToEnd: map[string]float64{"wall_s": 1, "cpu_s": 1, "setup_s": 1, "peak_rss_mb": 1},
			Counters: map[string]float64{"sim.cycles": cycles},
		}}}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%v.json", h.CPU, cycles))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := doc(h, 100), doc(h, 101)
	var out bytes.Buffer
	if err := runCompare(a, b, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "changed: machine-16p seed 1: sim.cycles 100 != 101") {
		t.Errorf("counter change not listed:\n%s", out.String())
	}
	other := h
	other.CPU = "other cpu"
	if err := runCompare(a, doc(other, 100), &out); err == nil {
		t.Error("compared results from different hosts")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(vs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(tc.vs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
}
