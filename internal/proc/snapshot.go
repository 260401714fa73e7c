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

// Machine reuse.
//
// Reset exists for sweep throughput: a litmus containment sweep builds over
// a million machines, and every experiment point runs on a warm machine from
// its worker's pool. Reset rewinds an existing machine to construction state
// without re-allocating.
//
// The precondition is QUIESCENCE: all threads finished, the event queue
// drained, no bus transaction or MSHR outstanding, every engine idle.
// Machine.Run guarantees exactly this on success (its final kernel drain
// exists for that purpose). At such a point no pooled bus message is in
// flight — they are all back on their free lists — which is why message
// pooling survives reuse untouched, and no event closure holds a reference
// to the finished run's state.

// allocBase is the base address NewMachine hands the allocator.
const allocBase memsys.Addr = 0x10000

// BaselineConfig returns the paper's Table 2 target system for the given
// processor count and scheme: the single shared construction path that the
// harness experiments use directly and the litmus runner shrinks (tiny
// cache, tight event budget) for its micro-programs. Reset semantics
// mirror exactly this construction.
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

// setDefaults applies NewMachine's config defaulting in place, so a reset
// machine carries the values a constructed one does.
func (c *Config) setDefaults() {
	if c.RestartPenalty == 0 {
		c.RestartPenalty = 10
	}
	if c.SpinRecheck == 0 {
		c.SpinRecheck = 2
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 500_000_000
	}
}

// ResetShape is the comparable construction-time shape of a machine: the
// fields that size its arrays, maps, and attached subsystems. Two configs
// with equal shapes describe machines whose allocations are interchangeable;
// everything OUTSIDE the shape (Scheme, Seed, Policy, RestartPenalty,
// SpinRecheck, StartJitter, MaxEvents) is a runtime knob that Reset may
// change freely. Notably the scheme is a knob, not shape: engines derive
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
func (c *Config) ResetShape() ResetShape {
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
// reusing every allocation: kernel event slab, cache arrays, bus message
// pools, controller maps, predictor tables, metrics instruments. It fails
// (leaving the machine untouched) when the machine is not quiescent — a
// run that errored out mid-flight leaves unfinished threads and pending
// events, and such a machine must be discarded, not recycled — or
// when cfg's shape differs from the machine's construction shape.
//
// Machines with a trace sink attached are not resettable: the sink is an
// external consumer whose stream would silently splice runs together.
//
// cfg is read, not kept: the machine copies it, so the caller may reuse it
// for the next run (a sweep changes only the seed).
func (m *Machine) Reset(cfg *Config) error {
	if cfg.Procs <= 0 {
		return errors.New("proc: need at least one processor")
	}
	if cfg.TraceSink != nil || m.cfg.TraceSink != nil {
		return errors.New("proc: Reset with a trace sink attached")
	}
	if shape := cfg.ResetShape(); shape != m.shape {
		return fmt.Errorf("proc: Reset shape mismatch: have %+v, want %+v", m.shape, shape)
	}
	if err := m.requireQuiescent(); err != nil {
		return err
	}
	m.K.Reset(cfg.Seed)
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
	m.cfg = *cfg // before cpu/engine reset: policy derivation must see cfg
	m.cfg.setDefaults()
	pol := m.cfg.policy()
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
	cpu.inlineDepth = 0
	cpu.pendingFallback = false
	cpu.waitFree = false
	cpu.commitLockBound = false
	cpu.commitRetries = 0
	cpu.lockEntered = false
	cpu.stalledUntil = 0
	cpu.critArmed = false
	cpu.critStart = 0
	cpu.critLock = nil
	cpu.lastOp = 0
	cpu.prog = cpuProgress{}
	cpu.stats = Stats{}
}
