package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
)

// childResult is what a child process reports about its one rep.
type childResult struct {
	SetupEnd  int64              `json:"setup_end_unix_ns"`
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Digest    string             `json:"sim_digest"`
	Counters  map[string]float64 `json:"counters"`
	Timings   map[string]float64 `json:"timings"`
	ItemsMs   []float64          `json:"items_ms"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	AllocMB   float64            `json:"alloc_mb"`
	GCCycles  float64            `json:"gc_cycles"`
}

// rep is one measured child process.
type rep struct {
	childResult
	CPUS   float64 `json:"cpu_s"`
	SetupS float64 `json:"setup_s"`
}

func (r *rep) endToEnd(name string) float64 {
	switch name {
	case "wall_s":
		return r.WallS
	case "cpu_s":
		return r.CPUS
	case "setup_s":
		return r.SetupS
	case "peak_rss_mb":
		return r.PeakRSSMB
	}
	panic("unknown end-to-end metric " + name)
}

// outcome is one workload's result in one invocation.
type outcome struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	EndToEnd  map[string]float64   `json:"end_to_end"`
	Reps      map[string][]float64 `json:"reps"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
	Notes     map[string]string    `json:"notes,omitempty"`
	Counters  map[string]float64   `json:"counters"`
	Digest    string               `json:"sim_digest"`
	Timings   map[string]float64   `json:"timings"`
}

// summarize reduces a workload's untraced reps, and its traced rep and
// profile attribution when there is one, to an outcome. Reps of one
// (workload, seed) must agree exactly on the digest and every counter.
func summarize(name string, seed int64, reps []*rep, traced *rep, layers map[string]float64, errs []string) *outcome {
	o := &outcome{
		Workload: name, Seed: seed, Errors: errs,
		EndToEnd: map[string]float64{}, Reps: map[string][]float64{}, Notes: map[string]string{},
	}
	all := reps
	if traced != nil {
		all = append(append([]*rep(nil), reps...), traced)
	}
	for i, r := range all {
		o.Attempted += r.Attempted
		o.Failed += r.Failed
		if r.Error != "" {
			o.Errors = append(o.Errors, r.Error)
		}
		if i == 0 {
			o.Counters, o.Digest, o.Timings = r.Counters, r.Digest, r.Timings
			continue
		}
		if r.Digest != o.Digest || !reflect.DeepEqual(r.Counters, o.Counters) {
			o.Errors = append(o.Errors, fmt.Sprintf("nondeterministic: rep %d disagrees with rep 1: %s",
				i+1, counterDiff(o.Digest, r.Digest, o.Counters, r.Counters)))
		}
	}
	if len(reps) == 0 {
		o.Errors = append(o.Errors, "no rep completed")
	}
	o.Correct = len(o.Errors) == 0 && o.Failed == 0
	if len(reps) == 0 {
		return o
	}
	for _, m := range endToEnd {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = r.endToEnd(m.Name)
		}
		o.Reps[m.Name] = vs
		o.EndToEnd[m.Name] = median(vs)
	}
	if traced != nil {
		o.perLayer(reps, traced, layers)
	}
	return o
}

// perLayer fills the per-layer metrics: profile self time of the traced rep,
// the deterministic counters and ratios over them, span totals, and
// per-machine (or per-program) host time pooled over the untraced reps.
func (o *outcome) perLayer(reps []*rep, traced *rep, layers map[string]float64) {
	p := map[string]float64{}
	for _, m := range perLayer {
		p[m.Name] = 0
	}
	covered := 0.0
	for name, s := range layers {
		if _, ok := p[name]; ok {
			p[name] = s
			covered += s
		}
	}
	for name, v := range o.Counters {
		p[name] = v
	}
	c := o.Counters
	wall := o.EndToEnd["wall_s"]
	p["sim.ns_per_simcycle"] = ratio(wall*1e9, c["sim.cycles"])
	p["sim.events_per_simcycle"] = ratio(c["sim.events"], c["sim.cycles"])
	p["sim.ns_per_event"] = ratio(wall*1e9, c["sim.events"])
	p["bus.msgs_per_simcycle"] = ratio(c["bus.txns"]+c["bus.data_msgs"], c["sim.cycles"])
	p["cache.miss_ratio"] = ratio(c["cache.misses"], c["cache.accesses"])
	p["core.commit_ratio"] = ratio(c["core.commits"], c["core.starts"])
	p["proc.ops_per_simcycle"] = ratio(c["proc.ops"], c["sim.cycles"])
	p["workloads.setup_span_s"] = traced.Timings["Workload.Setup"]
	p["workloads.validate_span_s"] = traced.Timings["Workload.Validate"]
	p["litmus.enumerate_span_s"] = traced.Timings["litmus.Enumerate"]
	p["runtime.alloc_mb"] = traced.AllocMB
	p["runtime.gc_cycles"] = traced.GCCycles
	p["trace_overhead"] = ratio(traced.WallS, wall) - 1
	p["profile_coverage"] = ratio(covered, traced.CPUS)

	var items []float64
	for _, r := range reps {
		items = append(items, r.ItemsMs...)
	}
	prefix := "harness.machine_ms"
	if c["litmus.programs"] > 0 {
		prefix = "litmus.program_ms"
	}
	if len(items) > 0 {
		p[prefix+"_p50"] = percentile(items, 0.5)
		o.Notes[prefix+"_p50"] = fmt.Sprintf("n=%d", len(items))
	}
	if v, label, ok := phi(items); ok {
		p[prefix+"_phi"] = v
		o.Notes[prefix+"_phi"] = fmt.Sprintf("%s, n=%d", label, len(items))
	} else {
		o.Notes[prefix+"_phi"] = fmt.Sprintf("omitted, n=%d < 100", len(items))
	}
	o.PerLayer = p
}

func counterDiff(d1, d2 string, c1, c2 map[string]float64) string {
	var diffs []string
	if d1 != d2 {
		diffs = append(diffs, fmt.Sprintf("sim_digest %s != %s", d1, d2))
	}
	for _, k := range sortedKeys(c1) {
		if c1[k] != c2[k] {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", k, c1[k], c2[k]))
		}
	}
	return strings.Join(diffs, "; ")
}

// print writes the outcome for a reader, then the one-line JSON result with
// the end-to-end metrics (traced false) or the per-layer metrics (traced true).
func (o *outcome) print(w io.Writer, h host, traced bool) {
	fmt.Fprintf(w, "== %s (seed %d) ==\n", o.Workload, o.Seed)
	fmt.Fprintf(w, "host: %s\n", h)
	for _, m := range endToEnd {
		vs := o.Reps[m.Name]
		fmt.Fprintf(w, "%-28s %12.6g %-6s median of n=%d %s, bound +%.0f%%\n",
			m.Name, o.EndToEnd[m.Name], m.Unit, len(vs), formatList(vs), 100*m.Bound)
	}
	fmt.Fprintf(w, "%-28s %12.6g %-6s %d failed / %d attempted\n", "fail_ratio",
		ratio(float64(o.Failed), float64(o.Attempted)), "ratio", o.Failed, o.Attempted)
	fmt.Fprintf(w, "%-28s %12s\n", "sim_digest", o.Digest)
	if o.PerLayer != nil {
		fmt.Fprintln(w, "per-layer (traced rep):")
		for _, m := range perLayer {
			note := o.Notes[m.Name]
			fmt.Fprintf(w, "  %-26s %12.6g %-11s %s\n", m.Name, o.PerLayer[m.Name], m.Unit, note)
		}
	}
	for _, e := range o.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	metrics := map[string]any{}
	decl, values := endToEnd, o.EndToEnd
	if traced {
		decl, values = perLayer, o.PerLayer
	}
	for _, m := range decl {
		metrics[m.Name] = map[string]any{"value": values[m.Name], "unit": m.Unit}
	}
	line, _ := json.Marshal(map[string]any{ // maps of numbers and strings always encode
		"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// ratio is a / b, or 0 where there is no base (a counter the workload
// does not have).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func formatList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func median(vs []float64) float64 {
	s := sorted(vs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method).
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	n := len(s)
	if n < 2 {
		m := median(vs)
		return m, m
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank percentile of vs, for q in (0, 1].
func percentile(vs []float64, q float64) float64 {
	s := sorted(vs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// phi is the highest of p90, p99 and p99.9 with at least ten samples beyond
// it; there is none below 100 samples.
func phi(vs []float64) (float64, string, bool) {
	for _, p := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if float64(len(vs))*(1-p.q) >= 10-1e-9 {
			return percentile(vs, p.q), p.label, true
		}
	}
	return 0, "", false
}
