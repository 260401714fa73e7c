package litmus

import (
	"fmt"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
	"tlrsim/internal/proc"
	"tlrsim/internal/runner"
)

// Perturb is the scheduling perturbation applied to a machine run. Litmus
// programs issue no workload randomness, so without perturbation every seed
// would produce the same interleaving; thread start jitter plus bus
// arbitration jitter make the seed sweep explore distinct schedules.
type Perturb struct {
	// StartJitter delays each thread's start by a seeded-random
	// 0..StartJitter cycles (proc.Config.StartJitter).
	StartJitter uint64
	// ArbJitter adds a seeded-random 0..ArbJitter cycles to every bus grant
	// (bus.Config.ArbJitter).
	ArbJitter uint64

	// Faults configures deterministic fault injection for the machine runs
	// (chaos mode). The analytic reference model is untouched: injected
	// adversity may change WHICH contained outcome a run lands on, but any
	// outcome outside the lock-based reference set is still a divergence —
	// containment must hold under every legal fault configuration.
	Faults fault.Spec

	// CM selects the contention-management policy eliding schemes use
	// (core.CM). Like Faults, the reference model is untouched: a policy may
	// change which contained outcome a run lands on, but every policy must
	// stay within the lock-based reference set. The zero value (the paper's
	// timestamp policy) leaves the machine configuration bit-identical to a
	// perturbation without the field.
	CM core.CM
}

// DefaultPerturb spreads thread starts across a few hundred cycles (the
// scale of a cache miss). Bus arbitration jitter is left off: measured on the
// full 2x2x<=3 sweep it adds no observed outcomes beyond what start jitter
// already exposes, and a nonzero ArbJitter forces every machine to seed the
// kernel RNG (~16us of lag-table setup), which would dominate the sweep.
var DefaultPerturb = Perturb{StartJitter: 300}

// withDefaultJitter returns pt with DefaultPerturb's scheduling jitter when
// it sets none, keeping any fault spec and policy: chaos and policy sweeps
// compose their adversity with the standard perturbation.
func (pt Perturb) withDefaultJitter() Perturb {
	if pt.StartJitter == 0 && pt.ArbJitter == 0 {
		pt.StartJitter = DefaultPerturb.StartJitter
		pt.ArbJitter = DefaultPerturb.ArbJitter
	}
	return pt
}

// maxEvents is the litmus run event budget. A healthy run of a <=9-op
// program completes in a few thousand events; a livelocked scheme hits this
// bound in well under a millisecond instead of grinding toward the
// machine-wide half-billion default.
const maxEvents = 250_000

// machineConfig assembles the small machine litmus programs run on: the
// shared Table 2 construction path (proc.BaselineConfig) shrunk for
// micro-programs. The seed is left zero; each run sets its own.
func machineConfig(cpus int, scheme proc.Scheme, pt *Perturb) proc.Config {
	cfg := proc.BaselineConfig(cpus, scheme, 0)
	// A litmus program touches at most a handful of padded lines; the tiny
	// cache keeps machine construction (the dominant cost of a cold sweep
	// over tens of thousands of micro-programs) cheap without ever evicting
	// the working set.
	cfg.Coherence.Cache = cache.Config{SizeBytes: 2048, Ways: 2, VictimEntries: 4}
	cfg.Coherence.Bus = bus.Config{
		SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2,
		MaxOutstanding: 32, ArbJitter: pt.ArbJitter,
	}
	cfg.Coherence.WriteBufferLines = 16
	// The TSO store buffer is opt-in machine-wide but mandatory here: the
	// reference model quantifies over store-buffer drain schedules, and
	// running the machine with blocking stores would silently shrink the
	// behaviours the sweep exercises to the SC subset.
	cfg.Coherence.StoreBufferEntries = 8
	cfg.MaxEvents = maxEvents
	cfg.StartJitter = pt.StartJitter
	if pt.CM != core.CMTimestamp && scheme.Elides() {
		cfg.Policy.CM = pt.CM
	}
	if pt.Faults.Enabled() {
		cfg.Faults = pt.Faults
		// Faulted runs are slower (grant delays, NACK storms, forced
		// restarts): give them event-budget headroom so exhaustion cannot
		// masquerade as a divergence, and arm the watchdog so a genuine
		// stall diagnoses itself instead of grinding to the budget.
		cfg.MaxEvents = 8 * maxEvents
		cfg.StallCycles = 200_000
	}
	return cfg
}

// Runner executes litmus programs with warm-machine reuse: one machine per
// construction shape, rewound with proc.Machine.Reset between runs instead
// of rebuilt. The scheme and seed are reset knobs, not shape, so at a fixed
// CPU count every (scheme, seed) run of a sweep shares one machine — even
// better than pooling per (threads, scheme, perturbation), since the
// perturbation's only shape-relevant field (ArbJitter) lands in the bus
// config and keys the pool automatically. A Runner is single-goroutine
// state; sweeps create one per worker. Its machines live in a
// runner.Machines cache.
type Runner struct {
	machines *runner.Machines

	// configs holds the machine config of every (CPUs, scheme,
	// perturbation) the runner has run, built once by machineConfig; a run
	// sets only its seed and hands the config to the machine cache by
	// pointer.
	configs []runConfig

	// Scratch arenas reused across runs (threads/ops/locs slices, and the
	// last run's outcome encoding).
	threads []proc.LitmusThread
	ops     []proc.LitmusOp
	locs    []memsys.Addr
	out     []byte
}

// runConfig is one entry of Runner.configs.
type runConfig struct {
	cpus   int
	scheme proc.Scheme
	pt     Perturb
	cfg    proc.Config
}

// config returns the runner's machine config for (cpus, scheme, pt), with
// the seed of its last run.
func (r *Runner) config(cpus int, scheme proc.Scheme, pt *Perturb) *proc.Config {
	for i := range r.configs {
		if c := &r.configs[i]; c.cpus == cpus && c.scheme == scheme && c.pt == *pt {
			return &c.cfg
		}
	}
	r.configs = append(r.configs, runConfig{cpus: cpus, scheme: scheme, pt: *pt,
		cfg: machineConfig(cpus, scheme, pt)})
	return &r.configs[len(r.configs)-1].cfg
}

// NewRunner returns a runner that reuses warm machines.
func NewRunner() *Runner { return newRunner(false) }

func newRunner(cold bool) *Runner { return &Runner{machines: runner.NewMachines(cold)} }

// Run executes the program on the simulated machine under one
// (scheme, seed, perturbation) and returns its outcome string. pt is read,
// not kept.
func (r *Runner) Run(p Program, scheme proc.Scheme, seed int64, pt *Perturb) (string, error) {
	out, err := r.run(p, scheme, seed, pt)
	return string(out), err
}

// run is Run with the outcome left in the runner's buffer, valid until the
// next run: a sweep compares it in place and allocates nothing.
func (r *Runner) run(p Program, scheme proc.Scheme, seed int64, pt *Perturb) ([]byte, error) {
	cfg := r.config(len(p.Threads), scheme, pt)
	cfg.Seed = seed
	m := r.machines.Acquire(cfg)
	if err := r.runOn(m, p); err != nil {
		// An errored run (deadlock, livelock, checker violation) leaves
		// unfinished threads and pending events behind: the machine is not
		// quiescent and is never released for reuse.
		return nil, err
	}
	r.machines.Release(m)
	return r.out, nil
}

// runOn builds the program's thread list into the runner's scratch arenas,
// executes it on m and formats its outcome into r.out.
func (r *Runner) runOn(m *proc.Machine, p Program) error {
	lock := m.LitmusLock()
	locs := r.locs[:0]
	for i := 0; i < p.NumLocs; i++ {
		locs = append(locs, m.Alloc.PaddedWord())
	}
	r.locs = locs
	// Fill the op arena completely before slicing it per thread: appends
	// may reallocate, and per-thread views taken early would go stale.
	ops := r.ops[:0]
	for ti, t := range p.Threads {
		for j, o := range t.Ops {
			ops = append(ops, proc.LitmusOp{
				IsLoad: o.Kind == Load,
				Addr:   locs[o.Loc],
				Val:    StoreVal(ti, j),
			})
		}
	}
	r.ops = ops
	threads := r.threads[:0]
	base := 0
	for _, t := range p.Threads {
		n := len(t.Ops)
		threads = append(threads, proc.LitmusThread{
			Ops:    ops[base : base+n : base+n],
			CritLo: int(t.CritLo),
			CritHi: int(t.CritHi),
		})
		base += n
	}
	r.threads = threads
	loads, err := m.RunLitmus(lock, threads)
	if err != nil {
		return err
	}
	if v := m.Sys.ArchWord(lock.Addr); v != 0 {
		return fmt.Errorf("lock word left %d after completion", v)
	}
	r.out = m.AppendLitmusOutcome(r.out[:0], loads, locs)
	return nil
}

// Run executes the program on a freshly built machine under one
// (scheme, seed, perturbation) and returns its outcome string. Sweeps use a
// Runner instead; this one-shot run is the entry point for reproducer tests
// and the fresh-machine reference that warm reuse is tested against.
func Run(p Program, scheme proc.Scheme, seed int64, pt Perturb) (string, error) {
	return newRunner(true).Run(p, scheme, seed, &pt)
}
