package proc

import (
	"errors"
	"fmt"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/coherence"
	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
)

// Machine reuse and snapshot/fork support.
//
// Both operations exist for sweep throughput: a litmus containment sweep
// builds over a million machines, and ablation sweeps re-simulate identical
// warm prefixes. Reset rewinds an existing machine to construction state
// without re-allocating (warm reuse); Snapshot/Fork deep-copies a quiescent
// machine so several configuration variants can branch from one shared
// prefix.
//
// The precondition for both is QUIESCENCE: all threads finished, the event
// queue drained, no bus transaction or MSHR outstanding, every engine idle.
// Machine.Run guarantees exactly this on success (its final kernel drain
// exists for that purpose). At such a point no pooled bus message is in
// flight — they are all back on their free lists — which is why message
// pooling survives reuse untouched, and no event closure holds a reference
// to live run state, which is what makes deep copy possible at all (an
// event queue full of closures over suspended threads cannot be copied).

// allocBase is the base address NewMachine hands the allocator.
const allocBase memsys.Addr = 0x10000

// BaselineConfig returns the paper's Table 2 target system for the given
// processor count and scheme: the single shared construction path that the
// harness experiments use directly and the litmus runner shrinks (tiny
// cache, tight event budget) for its micro-programs. Reset and fork
// semantics mirror exactly this construction.
func BaselineConfig(procs int, scheme Scheme, seed int64) Config {
	return Config{
		Procs:  procs,
		Scheme: scheme,
		Seed:   seed,
		Coherence: coherence.Config{
			Cache: cache.Config{SizeBytes: 131072, Ways: 4, VictimEntries: 16},
			Bus: bus.Config{
				SnoopLat: 20, DataLat: 20,
				ArbCycles: 2, ArbJitter: 2, Occupancy: 2,
				MaxOutstanding: 120,
			},
			L2Lat:            12,
			MemLat:           70,
			WriteBufferLines: 64,
		},
		RestartPenalty:  10,
		SpinRecheck:     2,
		UseRMWPredictor: true,
		RMWEntries:      128,
		ElisionEntries:  64,
		MaxEvents:       2_000_000_000,
		EnableChecker:   true,
	}
}

// withDefaults applies NewMachine's config defaulting, so shape comparison
// and reset see the same values a constructed machine carries.
func (c Config) withDefaults() Config {
	if c.RestartPenalty == 0 {
		c.RestartPenalty = 10
	}
	if c.SpinRecheck == 0 {
		c.SpinRecheck = 2
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 500_000_000
	}
	return c
}

// ResetShape is the comparable construction-time shape of a machine: the
// fields that size its arrays, maps, and attached subsystems. Two configs
// with equal shapes describe machines whose allocations are interchangeable;
// everything OUTSIDE the shape (Scheme, Seed, Policy, RestartPenalty,
// SpinRecheck, StartJitter, MaxEvents) is a runtime knob that Reset and Fork
// may change freely. Notably the scheme is a knob, not shape: engines derive
// their policy from it on reset, so one pooled machine serves BASE, SLE, and
// TLR runs alike.
type ResetShape struct {
	Procs           int
	Coherence       coherence.Config
	UseRMWPredictor bool
	RMWEntries      int
	ElisionEntries  int
	EnableChecker   bool
	EnableMetrics   bool
	TraceCapacity   int
}

// ResetShape returns the machine shape this config constructs (pool/cache
// key for warm-machine reuse).
func (c Config) ResetShape() ResetShape {
	return ResetShape{
		Procs:           c.Procs,
		Coherence:       c.Coherence,
		UseRMWPredictor: c.UseRMWPredictor,
		RMWEntries:      c.RMWEntries,
		ElisionEntries:  c.ElisionEntries,
		EnableChecker:   c.EnableChecker,
		EnableMetrics:   c.EnableMetrics,
		TraceCapacity:   c.TraceCapacity,
	}
}

// requireQuiescent verifies the machine is at a rest point: threads done (or
// never started), kernel drained, memory system idle, engines idle.
func (m *Machine) requireQuiescent() error {
	for _, c := range m.CPUs {
		if c.src != nil && !c.done {
			return fmt.Errorf("proc: CPU %d thread still running", c.id)
		}
		if c.eng.Mode() != core.ModeIdle {
			return fmt.Errorf("proc: CPU %d engine not idle", c.id)
		}
	}
	if n := m.K.Pending(); n != 0 {
		return fmt.Errorf("proc: %d kernel events pending", n)
	}
	if !m.Sys.Quiescent() {
		return errors.New("proc: memory system not quiescent")
	}
	return nil
}

// Reset rewinds the machine to the state NewMachine(cfg) would construct,
// reusing every allocation: kernel event heap, cache arrays, bus message
// pools, controller maps, predictor tables, metrics instruments. It fails
// (leaving the machine untouched) when the machine is not quiescent — a
// run that errored out mid-flight leaves unfinished threads and pending
// events, and such a machine must be discarded, not recycled — or
// when cfg's shape differs from the machine's construction shape.
//
// Machines with a trace sink attached are not resettable: the sink is an
// external consumer whose stream would silently splice runs together.
func (m *Machine) Reset(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.Procs <= 0 {
		return errors.New("proc: need at least one processor")
	}
	if cfg.TraceSink != nil || m.cfg.TraceSink != nil {
		return errors.New("proc: Reset with a trace sink attached")
	}
	if cfg.ResetShape() != m.cfg.ResetShape() {
		return fmt.Errorf("proc: Reset shape mismatch: have %+v, want %+v",
			m.cfg.ResetShape(), cfg.ResetShape())
	}
	if err := m.requireQuiescent(); err != nil {
		return err
	}
	m.K.Reset(cfg.Seed)
	pol := cfg.policy()
	// Rewind (same spec) or rebuild (spec changed) the fault injector. The
	// spec is a reset knob, not shape: a pooled machine alternates freely
	// between clean and faulted runs, and a rewound injector replays the
	// identical fault stream.
	if cfg.Faults == m.cfg.Faults {
		m.faults.Reset()
	} else {
		m.faults = fault.New(cfg.Faults)
		m.Sys.SetFaults(m.faults)
	}
	m.cfg = cfg // before cpu/engine reset: policy derivation must see cfg
	m.lastProgressAt = 0
	m.deadlockRecoveries = 0
	for _, c := range m.CPUs {
		c.eng.Reset(pol)
		if s := m.faults.StampSkew(c.id); s > 0 {
			c.eng.SkewClock(s)
		}
		c.reset()
	}
	m.Sys.Reset()
	m.Alloc.Reset(allocBase)
	m.nextLockID = 0
	m.mx.Reset()
	return nil
}

// reset rewinds the CPU to the state newCPU constructs.
func (cpu *CPU) reset() {
	cpu.elide.Reset()
	cpu.rmw.Reset()
	cpu.src = nil
	cpu.done = false
	cpu.finish = 0
	cpu.seq = 0
	cpu.opActive = false
	cpu.opStart = 0
	cpu.curOp = op{}
	cpu.pendingOp = op{}
	cpu.leadOp = op{}
	cpu.inlineDepth = 0
	cpu.pendingFallback = false
	cpu.waitFree = false
	cpu.commitLockBound = false
	cpu.stalledUntil = 0
	cpu.critArmed = false
	cpu.critStart = 0
	cpu.critLock = nil
	cpu.lastOp = 0
	cpu.prog = cpuProgress{}
	cpu.stats = Stats{}
}

// adoptState copies src's cross-run state: predictor tables, completion
// status, per-CPU stats, and the fallback/wait hints that survive between
// critical sections. Transient in-flight operation state is zeroed — both
// CPUs are at a quiescent point where none of it is live.
func (cpu *CPU) adoptState(src *CPU) {
	cpu.elide.AdoptState(src.elide)
	cpu.rmw.AdoptState(src.rmw)
	cpu.src = nil
	cpu.done = src.done
	cpu.finish = src.finish
	cpu.seq = src.seq
	cpu.opActive = false
	cpu.opStart = 0
	cpu.curOp = op{}
	cpu.pendingOp = op{}
	cpu.leadOp = op{}
	cpu.inlineDepth = 0
	cpu.pendingFallback = src.pendingFallback
	cpu.waitFree = src.waitFree
	cpu.commitLockBound = false
	cpu.stalledUntil = src.stalledUntil
	cpu.critArmed = false
	cpu.critStart = 0
	cpu.critLock = nil
	cpu.lastOp = src.lastOp
	cpu.prog = src.prog
	// The lock pointer belongs to the source machine's workload objects;
	// the adopting machine's next phase allocates its own locks.
	cpu.prog.lock = nil
	cpu.stats = src.stats
}

// adoptState makes m's observable state identical to src's. Both machines
// must be quiescent and share a construction shape.
func (m *Machine) adoptState(src *Machine) {
	m.K.AdoptState(src.K)
	m.Sys.AdoptState(src.Sys)
	for i, c := range m.CPUs {
		c.eng.AdoptState(src.CPUs[i].eng)
		c.adoptState(src.CPUs[i])
	}
	m.Alloc.AdoptState(src.Alloc)
	m.nextLockID = src.nextLockID
	m.lastProgressAt = src.lastProgressAt
	m.deadlockRecoveries = src.deadlockRecoveries
}

// Snapshot is a frozen deep copy of a quiescent machine, taken with
// Machine.Snapshot and consumed by Fork. It owns a private image machine
// that nothing else references, so any number of forks (and continued use
// of the source machine) cannot disturb it.
type Snapshot struct {
	cfg Config
	img *Machine
}

// Config returns the configuration of the snapshotted machine.
func (s *Snapshot) Config() Config { return s.cfg }

// Snapshot captures the machine's complete architectural and
// micro-architectural state at a quiescent point: memory image, cache
// contents and LRU state, L2 presence, engine clocks, predictor tables,
// RNG position, stats. Mid-run snapshots are impossible by construction —
// suspended threads and event-queue closures cannot be copied — so
// callers snapshot between Run phases; Machine.Run's final drain makes
// every successful return such a point.
//
// Machines with a trace sink or metrics attached refuse to snapshot: the
// sink is an external stream, and metrics hold per-lock profile pointers
// that workload Lock objects share, which forks would race on.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.cfg.TraceSink != nil {
		return nil, errors.New("proc: Snapshot with a trace sink attached")
	}
	if m.cfg.EnableMetrics {
		return nil, errors.New("proc: Snapshot with metrics attached")
	}
	if m.cfg.Faults.Enabled() {
		// The injector's stream position is mid-sweep state the image does
		// not carry; faulted sweeps use Reset pooling instead.
		return nil, errors.New("proc: Snapshot with fault injection enabled")
	}
	if err := m.requireQuiescent(); err != nil {
		return nil, err
	}
	img := NewMachine(m.cfg)
	img.adoptState(m)
	return &Snapshot{cfg: m.cfg, img: img}, nil
}

// Fork builds a new machine whose state continues from the snapshot under
// cfg. cfg must have the snapshot's construction shape; runtime knobs
// (Scheme, Policy, RestartPenalty, SpinRecheck, StartJitter, MaxEvents,
// Seed) may differ — that is the point: ablation sweeps branch one warm
// prefix into many configuration variants. The kernel RNG stream continues
// from the snapshot position (it is machine state, not configuration); the
// forked machine's tracer, if any, starts empty, so traces stay per-phase.
func (s *Snapshot) Fork(cfg Config) (*Machine, error) {
	cfg = cfg.withDefaults()
	if cfg.TraceSink != nil {
		return nil, errors.New("proc: Fork with a trace sink attached")
	}
	if cfg.Faults.Enabled() {
		return nil, errors.New("proc: Fork with fault injection enabled")
	}
	if cfg.ResetShape() != s.cfg.ResetShape() {
		return nil, fmt.Errorf("proc: Fork shape mismatch: snapshot %+v, want %+v",
			s.cfg.ResetShape(), cfg.ResetShape())
	}
	f := NewMachine(cfg)
	f.adoptState(s.img)
	return f, nil
}

// ForkInto is Fork without the construction cost: it rewinds an existing
// machine of the snapshot's shape to cfg and adopts the snapshot's state.
// Warm pools use it so branching a prefix into N variants allocates no
// machines at all. The machine must be quiescent (Reset enforces it); on
// error it is left either untouched or freshly reset, never half-adopted.
func (s *Snapshot) ForkInto(m *Machine, cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.Faults.Enabled() {
		return errors.New("proc: ForkInto with fault injection enabled")
	}
	if cfg.ResetShape() != s.cfg.ResetShape() {
		return fmt.Errorf("proc: ForkInto shape mismatch: snapshot %+v, want %+v",
			s.cfg.ResetShape(), cfg.ResetShape())
	}
	if err := m.Reset(cfg); err != nil {
		return err
	}
	m.adoptState(s.img)
	return nil
}
