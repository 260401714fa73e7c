// Package workloads implements the benchmarks of the paper's evaluation
// (§5): the three microbenchmarks capturing distinct locking/conflict
// behaviours (multiple-counter, single-counter, doubly-linked list) and
// synthetic kernels reproducing the critical-section behaviour of the seven
// SPLASH/SPLASH-2 applications of Table 1.
//
// Every workload is execution-driven: thread programs issue real loads and
// stores against the simulated memory system, and a Validate step checks the
// final memory image against a sequential oracle — the serializability check
// for the whole machine.
package workloads

import (
	"fmt"

	"tlrsim/internal/proc"
)

// Workload is one runnable benchmark.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Setup allocates simulated memory and locks on the machine.
	Setup(m *proc.Machine)
	// Program returns the thread body for the given CPU.
	Program(cpu int) func(*proc.TC)
	// Validate checks the final memory image against the sequential oracle.
	Validate(m *proc.Machine) error
}

// Run builds a machine for cfg, runs w on all CPUs, and validates.
func Run(cfg proc.Config, w Workload) (*proc.Machine, error) {
	m := proc.NewMachine(cfg)
	return m, RunOn(m, w)
}

// RunOn sets w up on an existing machine (fresh, or rewound by
// proc.Machine.Reset), runs it on all CPUs, and validates. Warm-machine
// reuse runs exactly this path: Reset is exact, so results are identical to
// a freshly built machine's.
func RunOn(m *proc.Machine, w Workload) error {
	w.Setup(m)
	procs := len(m.CPUs)
	progs := make([]func(*proc.TC), procs)
	for i := range progs {
		progs[i] = w.Program(i)
	}
	if err := m.Run(progs); err != nil {
		return fmt.Errorf("%s: %w", w.Name(), err)
	}
	if err := m.Sys.CheckCoherence(); err != nil {
		return withFlight(m, fmt.Errorf("%s: coherence: %w", w.Name(), err))
	}
	if err := m.CheckerErr(); err != nil {
		return withFlight(m, fmt.Errorf("%s: %w", w.Name(), err))
	}
	if err := w.Validate(m); err != nil {
		return withFlight(m, fmt.Errorf("%s: validate: %w", w.Name(), err))
	}
	return nil
}

// withFlight appends the machine's flight-recorder dump (most recent tracer
// ring events) to a correctness-violation error, preserving the wrapped error
// chain for errors.As. A no-op when no tracer ring is attached.
func withFlight(m *proc.Machine, err error) error {
	if dump := m.FlightDump(); dump != "" {
		return fmt.Errorf("%w\n%s", err, dump)
	}
	return err
}

// fairnessDelay implements the §5.1 methodology: after releasing a lock the
// processor waits a minimum random interval so another processor has an
// opportunity to acquire it before a successive local re-acquire.
func fairnessDelay(tc *proc.TC) {
	tc.Compute(uint64(30 + tc.Rand().Intn(90)))
}

// perProc splits total work across procs, giving every processor at least
// one unit (the paper scales per-processor work as total/n).
func perProc(total, procs int) int {
	n := total / procs
	if n < 1 {
		n = 1
	}
	return n
}
