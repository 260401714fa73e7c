// Command bench measures how long tlrsim takes, in host time, on five
// workloads that stress different layers of the simulator, and attributes
// that time to the internal/ packages. See README.md.
//
//	bash bench/run.sh                          # every workload, traced
//	bash bench/run.sh --workload litmus-sweep --seed 7 --trace 0
//	bash bench/run.sh -out a.json              # keep the full result
//	bash bench/run.sh -compare before/ after/  # compare two result sets
//
// Each rep runs in a fresh child process (this binary with -child), one
// simulated machine at a time. The last line of standard output is a JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) of the last workload run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

const (
	// runSeconds is the default untraced measurement time per workload, the
	// run_seconds of BENCHMARK.json.
	runSeconds = 25
	// minReps is the fewest untraced reps a workload gets, however long
	// they take.
	minReps = 3
	// childProcs is the GOMAXPROCS of every rep. Workload threads are
	// goroutines that hand each op to the simulated CPU over a channel; with
	// a second P a handoff can wake another OS thread, and a rep then
	// measures the host's thread scheduling rather than the simulator.
	childProcs = 1
	// outDir, under the working directory, receives the traced reps' CPU
	// profiles and span traces.
	outDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: all, "+strings.Join(names, ", "))
		seed    = fs.Int64("seed", 2002, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", runSeconds, "untraced measurement time per workload (at least 3 reps run)")
		trace   = fs.Int("trace", 1, "1: add a traced rep and end with the per-layer metrics; 0: end with the end-to-end metrics")
		out     = fs.String("out", "", "also write the full result document (JSON) to this file")
		compare = fs.Bool("compare", false, "compare two sets of -out documents: -compare A B, each a file or a directory")
		child   = fs.String("child", "", "internal: run one rep of this workload in this process")
		profile = fs.String("profile", "", "internal: the child writes its CPU profile here")
		spans   = fs.String("spans", "", "internal: the child writes its span trace here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two arguments: A B")
			return 2
		}
		if err := runCompare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *child != "" {
		if err := runChild(*child, *seed, *profile, *spans, stdout); err != nil {
			fmt.Fprintln(stderr, "bench child:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	h := hostInfo()
	traced := *trace == 1
	outs := measure(ws, *seed, *seconds, traced)
	status := 0
	for _, o := range outs {
		o.print(stdout, h, traced)
		if !o.Correct {
			status = 1
		}
	}
	if *out != "" {
		doc := document{Host: h, Seconds: *seconds, Outcomes: outs}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: -out:", err)
			return 1
		}
	}
	return status
}

// document is the full result of one invocation (-out), the input of
// -compare.
type document struct {
	Host     host       `json:"host"`
	Seconds  int        `json:"seconds"`
	Outcomes []*outcome `json:"workloads"`
}

// measure runs untraced reps round-robin across the workloads, so that a
// slow host period does not land on one workload's reps, until the time
// budget would run out, then one traced rep per workload.
func measure(ws []*workload, seed int64, seconds int, traced bool) []*outcome {
	reps := make([][]*rep, len(ws))
	errs := make([][]string, len(ws))
	budget := time.Duration(seconds) * time.Second * time.Duration(len(ws))
	start := time.Now()
	var round time.Duration
	for n := 0; n < minReps || time.Since(start)+round <= budget; n++ {
		roundStart := time.Now()
		ran := false
		for i, w := range ws {
			if len(errs[i]) > 0 {
				continue
			}
			r, err := runRep(w.name, seed, "", "")
			if err != nil {
				errs[i] = append(errs[i], err.Error())
				continue
			}
			reps[i] = append(reps[i], r)
			ran = true
		}
		if !ran {
			break
		}
		round = time.Since(roundStart)
	}
	outs := make([]*outcome, len(ws))
	for i, w := range ws {
		var (
			tr     *rep
			layers map[string]float64
		)
		if traced && len(errs[i]) == 0 {
			prof := filepath.Join(outDir, w.name+".pprof")
			r, err := runRep(w.name, seed, prof, filepath.Join(outDir, w.name+".trace.json"))
			if err == nil {
				var samples []sample
				if samples, err = readProfile(prof); err == nil {
					tr, layers = r, attribute(samples)
				}
			}
			if err != nil {
				errs[i] = append(errs[i], err.Error())
			}
		}
		outs[i] = summarize(w.name, seed, reps[i], tr, layers, errs[i])
	}
	return outs
}

// runRep runs one rep of the workload in a child process and measures the
// child's CPU time and set-up time. A non-empty profile makes it the traced
// rep.
func runRep(name string, seed int64, profile, spans string) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spawn := time.Now()
	args := []string{"-child", name, "-seed", strconv.FormatInt(seed, 10)}
	if profile != "" {
		args = append(args, "-profile", profile, "-spans", spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s rep: %w", name, err)
	}
	r := &rep{}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r.childResult); err != nil {
		return nil, fmt.Errorf("%s rep: bad child result: %w", name, err)
	}
	ps := cmd.ProcessState
	r.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	r.SetupS = float64(r.SetupEnd-spawn.UnixNano()) / 1e9
	return r, nil
}

// runChild runs one rep in this process: set-up (input generation), then
// the timed entry-point calls, and prints its childResult as JSON.
func runChild(name string, seed int64, profile, spans string, stdout io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	stopProfile := func() error { return nil }
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	r := newRecorder(spans != "")
	res := measureRep(w, seed, fullScale, r)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.AllocMB, res.GCCycles = float64(mem.TotalAlloc)/(1<<20), float64(mem.NumGC)
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	// Spans are written while the profiler still runs, so the profile covers
	// (as bench.self_s) nearly all of the CPU time the parent measures.
	if spans != "" {
		if err := r.writeSpans(spans); err != nil {
			return err
		}
	}
	if err := stopProfile(); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// measureRep generates the workload's inputs, then times its entry-point
// calls, validation included.
func measureRep(w *workload, seed int64, sc scale, r *recorder) childResult {
	body := w.prepare(r, seed, sc)
	setupEnd := time.Now()
	err := body()
	wall := time.Since(setupEnd)
	res := childResult{
		SetupEnd: setupEnd.UnixNano(), WallS: wall.Seconds(),
		Attempted: r.attempted, Failed: r.failed,
		Digest: fmt.Sprintf("%016x", r.digest.Sum64()), Counters: r.counters, Timings: r.timings,
		ItemsMs: r.items,
	}
	if err != nil {
		res.Error = err.Error()
		res.Failed = max(res.Failed, 1)
	}
	return res
}

// peakRSSMB is this process's peak resident set (VmHWM). The parent cannot
// take it from the child's rusage: Linux starts a child's ru_maxrss at the
// resident set of the address space it replaced at exec, which for a
// vfork-style start is the parent's.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// host identifies where and what was measured. Comparisons need the same
// machine fields on both sides; commit and dirty say which code ran.
type host struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func (h host) String() string {
	return fmt.Sprintf("%s nproc=%d GOMAXPROCS=%d cpu=%q commit=%s dirty=%t",
		h.Go, h.NProc, h.GOMAXPROCS, h.CPU, h.Commit, h.Dirty)
}

func (h host) sameMachine(o host) bool {
	return h.Go == o.Go && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.CPU == o.CPU
}

func hostInfo() host {
	h := host{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: childProcs,
		CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout both commands fail and the commit stays unknown.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		h.Dirty = err != nil || len(st) > 0
	}
	return h
}
