// Package proc implements the processor model: timing CPUs that execute
// workload threads written as ordinary Go functions against the simulated
// memory system, in lock-step with the discrete-event kernel.
//
// A thread runs as a coroutine on the goroutine that called Machine.Run: the
// CPU pulls one operation from it, simulates its timing against the
// cache/bus model, and resumes it with the result at the operation's
// completion cycle. Thread and kernel strictly alternate, so simulations are
// deterministic and thread code never races the kernel.
//
// Critical sections are expressed as tc.Critical(lock, body). Under BASE and
// MCS the runtime acquires the lock with real simulated memory operations;
// under SLE and TLR the CPU elides the lock and executes body as an
// optimistic lock-free transaction, re-running it from the beginning on
// misspeculation — the software-visible equivalent of the hardware's
// register-checkpoint restart.
package proc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"tlrsim/internal/checker"
	"tlrsim/internal/coherence"
	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/locks"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
	"tlrsim/internal/telemetry"
	"tlrsim/internal/trace"
)

// Scheme selects the synchronisation configuration under evaluation
// (§5: BASE, BASE+SLE, BASE+SLE+TLR, TLR-strict-ts, and MCS).
type Scheme int

const (
	// Base executes test&test&set acquisitions literally.
	Base Scheme = iota
	// SLE elides locks but falls back to acquisition on data conflicts.
	SLE
	// TLR elides locks and resolves conflicts with timestamps and deferral.
	TLR
	// TLRStrictTS is TLR without the §3.2 single-block relaxation.
	TLRStrictTS
	// MCS uses software queue locks (no elision).
	MCS
)

func (s Scheme) String() string {
	switch s {
	case Base:
		return "BASE"
	case SLE:
		return "BASE+SLE"
	case TLR:
		return "BASE+SLE+TLR"
	case TLRStrictTS:
		return "BASE+SLE+TLR-strict-ts"
	case MCS:
		return "MCS"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Elides reports whether the scheme attempts lock elision.
func (s Scheme) Elides() bool { return s == SLE || s == TLR || s == TLRStrictTS }

// Config assembles a machine.
type Config struct {
	Procs     int
	Scheme    Scheme
	Seed      int64
	Coherence coherence.Config

	// RestartPenalty models the pipeline flush + recovery cost of a
	// misspeculation before the transaction re-executes.
	RestartPenalty uint64
	// SpinRecheck is the local re-check latency of a spin loop after an
	// invalidation wakes it.
	SpinRecheck uint64
	// UseRMWPredictor enables the PC-indexed read-modify-write collapsing
	// predictor for all schemes (§3.1.2; Table 2 uses it everywhere).
	UseRMWPredictor bool
	RMWEntries      int
	ElisionEntries  int

	// Policy is the core engine policy; zero value means derive from Scheme.
	Policy core.Policy

	// MaxEvents bounds a run (runaway/livelock guard).
	MaxEvents uint64

	// StallCycles, when positive, arms the forward-progress watchdog: if no
	// CPU commits, acquires, falls back, exits a critical section, or
	// finishes for StallCycles simulated cycles, the run fails with a
	// StallError diagnosing which CPUs stopped where — long before the event
	// budget grinds out. Zero disables the watchdog (the event budget and
	// deadlock detector still produce structured StallErrors).
	StallCycles uint64

	// Faults configures deterministic fault injection (zero value: disabled,
	// and the machine is byte-identical to one built without the field). The
	// injector draws from its own seeded stream, never the kernel RNG, so
	// runs remain pure functions of (Config, Seed, Faults). See fault.Spec.
	Faults fault.Spec

	// StartJitter, when positive, delays each thread's first fetch by a
	// uniformly random 0..StartJitter cycles drawn from the kernel's seeded
	// stream. It is the scheduling-perturbation knob for litmus exploration:
	// litmus programs issue no workload randomness of their own, so without
	// jitter every seed would collapse onto one interleaving. Combined with
	// bus arbitration jitter (bus.Config.ArbJitter) a seed sweep explores
	// genuinely distinct schedules while each individual run stays a pure
	// function of (Config, Seed).
	StartJitter uint64

	// EnableChecker runs the functional checker behind the timing simulator
	// (§5.3): every transaction commit and plain access is validated against
	// an architectural shadow memory.
	EnableChecker bool

	// TraceCapacity, when positive, attaches a protocol-event tracer
	// retaining the last TraceCapacity events (Machine.Trace).
	TraceCapacity int

	// TraceSink, when non-nil, streams every protocol event into the sink
	// as it is recorded (structured trace export). A sink implies a tracer
	// even when TraceCapacity is zero.
	TraceSink trace.Sink

	// EnableMetrics attaches the observability instrument set
	// (Machine.Metrics): counters, latency histograms, time-weighted gauges
	// and per-lock contention profiles. The instruments own no kernel
	// events, so results are identical either way. Disabled, the machine
	// carries a nil set and every instrumentation site costs one pointer
	// test.
	EnableMetrics bool
}

func (c Config) policy() core.Policy {
	p := c.Policy
	if p.MaxDeferred == 0 {
		p = core.DefaultPolicy()
		p.StrictTimestamps = c.Policy.StrictTimestamps
		p.AbortOnUntimestamped = c.Policy.AbortOnUntimestamped
		p.CM = c.Policy.CM
	}
	switch c.Scheme {
	case SLE:
		p.EnableTLR = false
	case TLR:
		p.EnableTLR = true
	case TLRStrictTS:
		p.EnableTLR = true
		p.StrictTimestamps = true
	}
	// The strict-ts policy is the StrictTimestamps ablation absorbed as a
	// contention policy: keep the flag in sync so every reader of either
	// knob (e.g. the §3.2 revocation check) sees a consistent view.
	if p.CM == core.CMStrictTS {
		p.StrictTimestamps = true
	}
	// Policies derive deterministic jitter from the machine seed (the
	// StartJitter idiom); the seed is a run knob, not part of the policy a
	// caller configures.
	p.Seed = c.Seed
	// The fault spec's restart cap is the bounded-retries half of the
	// degradation contract: under injected adversity every CPU must commit or
	// reach fallback within a bounded number of restarts. An explicit Policy
	// cap wins; otherwise the spec's flows through.
	if c.Faults.RestartCap > 0 && p.MaxRestarts == 0 {
		p.MaxRestarts = c.Faults.RestartCap
	}
	return p
}

// Machine is one configured multiprocessor ready to run workloads.
type Machine struct {
	K     *sim.Kernel
	Sys   *coherence.System
	CPUs  []*CPU
	Alloc *memsys.Allocator

	cfg        Config
	nextLockID int
	mx         *telemetry.Set

	// faults is the deterministic fault injector (nil when disabled: every
	// injection site costs one pointer test and the machine behaves exactly
	// as before the fault layer existed).
	faults *fault.Injector

	// lastProgressAt is the cycle of the most recent forward-progress event
	// on any CPU (the watchdog horizon; see stall.go).
	lastProgressAt sim.Time

	// deadlockRecoveries counts wait-cycle squashes (stall.go): times the
	// event queue ran dry with blocked threads and the machine aborted the
	// youngest deferring transaction to restore flow.
	deadlockRecoveries uint64

	// litmus is RunLitmus's reusable scratch (harness.go).
	litmus litmusScratch
}

// NewMachine builds the machine: kernel, bus, caches, engines, CPUs.
func NewMachine(cfg Config) *Machine {
	if cfg.Procs <= 0 {
		panic("proc: need at least one processor")
	}
	cfg = cfg.withDefaults()
	k := sim.New(cfg.Seed)
	engines := make([]*core.Engine, cfg.Procs)
	for i := range engines {
		engines[i] = core.NewEngine(i, cfg.policy())
	}
	sys := coherence.NewSystem(k, cfg.Procs, cfg.Coherence, engines)
	m := &Machine{
		K:      k,
		Sys:    sys,
		Alloc:  memsys.NewAllocator(allocBase),
		cfg:    cfg,
		faults: fault.New(cfg.Faults),
	}
	sys.SetFaults(m.faults)
	// Adversarial timestamp assignment: skew each engine's TLR clock by a
	// per-CPU seeded offset, perturbing every initial age order the paper's
	// fairness argument must tolerate (§3.1: any timestamps work as long as
	// they are eventually updated on success).
	for i, e := range engines {
		if s := m.faults.StampSkew(i); s > 0 {
			e.SkewClock(s)
		}
	}
	if cfg.EnableChecker {
		sys.AttachChecker(checker.New())
	}
	if cfg.TraceCapacity > 0 || cfg.TraceSink != nil {
		sys.Tracer = trace.New(cfg.TraceCapacity)
		sys.Tracer.AttachSink(cfg.TraceSink)
	}
	if cfg.EnableMetrics {
		m.mx = telemetry.NewSet(cfg.Procs)
		sys.Metrics = m.mx
		sys.Bus.SetOccupancy(&m.mx.BusOccupancy)
	}
	m.CPUs = make([]*CPU, cfg.Procs)
	for i := range m.CPUs {
		m.CPUs[i] = newCPU(m, i, sys.Ctrls[i], engines[i])
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Mem returns the backing memory image (for workload setup and validation).
func (m *Machine) Mem() *memsys.Memory { return m.Sys.Mem }

// NewLock allocates a lock: a padded test&test&set word, plus MCS queue
// state when the machine runs the MCS scheme. All lock words are registered
// for lock-class stall attribution.
func (m *Machine) NewLock() *Lock {
	m.nextLockID++
	l := &Lock{ID: m.nextLockID, Addr: m.Alloc.PaddedWord()}
	l.prof = m.mx.RegisterLock(l.Addr, l.ID, &l.stats)
	m.Sys.RegisterLock(l.Addr)
	if m.cfg.Scheme == MCS {
		l.attachMCS(m)
	}
	return l
}

// Run executes one program per CPU to completion. It returns an error on
// deadlock (all threads blocked with no events pending) or when the event
// budget is exhausted (livelock guard). When the functional checker is
// attached and has recorded a divergence, that divergence is joined into the
// returned error: a livelock or deadlock is very often the *symptom* of a
// correctness bug (e.g. a consumer spinning forever on a value the broken
// protocol lost), and reporting only the budget exhaustion would hide the
// cause.
func (m *Machine) Run(progs []func(*TC)) error {
	if len(progs) != len(m.CPUs) {
		return fmt.Errorf("proc: %d programs for %d CPUs", len(progs), len(m.CPUs))
	}
	srcs := make([]opSource, len(progs))
	for i, p := range progs {
		srcs[i] = newTC(m.CPUs[i], p)
	}
	return m.runLoop(srcs)
}

// startDelay is cpu's start-jitter delay. The delay is a seeded hash rather
// than a kernel-RNG draw: it is derived per (seed, CPU) without seeding
// math/rand, so machines whose only perturbation is start jitter (litmus
// sweeps build tens of thousands of them) never pay the lag-table setup
// cost.
func (m *Machine) startDelay(cpu int) uint64 {
	if m.cfg.StartJitter == 0 {
		return 0
	}
	return startDelay(m.cfg.Seed, cpu) % (m.cfg.StartJitter + 1)
}

// runLoop starts one thread per CPU and runs the event loop behind Run and
// RunLitmus. All three failure exits (event budget, deadlock, watchdog)
// return a structured *StallError (stall.go) joined with any checker
// divergence.
func (m *Machine) runLoop(srcs []opSource) error {
	for i, s := range srcs {
		m.CPUs[i].start(s, m.startDelay(i))
	}
	defer m.stopThreads()
	m.lastProgressAt = m.K.Now()
	watchdog := m.cfg.StallCycles
	var iter uint64
	for {
		if m.allDone() {
			break
		}
		if m.K.Fired() >= m.cfg.MaxEvents {
			return errors.Join(m.stallError(StallEventBudget), m.CheckerErr())
		}
		// Every 1024 loop iterations, to keep the hot loop clean: yield the
		// host thread, because coroutine switches never enter the Go
		// scheduler and at GOMAXPROCS=1 the GC's background mark worker
		// would starve; and check the watchdog, which reads only host-side
		// counters — no kernel events, so arming it cannot perturb the
		// simulated schedule.
		iter++
		if iter&1023 == 0 {
			runtime.Gosched()
			if now := m.K.Now(); watchdog > 0 && now > m.lastProgressAt && uint64(now-m.lastProgressAt) > watchdog {
				return errors.Join(m.stallError(StallWatchdog), m.CheckerErr())
			}
		}
		if !m.K.Step() {
			// Event queue dry with threads still blocked: a closed wait
			// cycle (see recoverDeadlock). Squash the youngest deferring
			// transaction and keep going; fail only when no candidate
			// remains.
			if m.recoverDeadlock() {
				continue
			}
			return errors.Join(m.stallError(StallDeadlock), m.CheckerErr())
		}
	}
	// Drain the memory system (in-flight write-backs etc.).
	m.K.Run()
	return nil
}

// startDelay mixes (seed, cpu) through splitmix64: cheap, well-distributed,
// and deterministic for a given configuration.
func startDelay(seed int64, cpu int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(cpu+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stopThreads unwinds every coroutine thread that did not finish, so a run
// that failed or panicked leaves no suspended goroutine behind.
func (m *Machine) stopThreads() {
	for _, c := range m.CPUs {
		if tc, ok := c.src.(*TC); ok && !c.done {
			tc.stop()
		}
	}
}

func (m *Machine) allDone() bool {
	for _, c := range m.CPUs {
		if !c.done {
			return false
		}
	}
	return true
}

// InjectDeschedule models the operating system preempting the thread on cpu
// at the given cycle for duration cycles (§4 stability). Under elision the
// speculative critical section aborts immediately — its updates are
// discarded and the lock stays free, so other threads keep making progress
// (non-blocking behaviour); a BASE thread that holds a real lock keeps it
// across the whole quantum and blocks every waiter.
func (m *Machine) InjectDeschedule(cpu int, at, duration uint64) {
	if cpu < 0 || cpu >= len(m.CPUs) {
		panic(fmt.Sprintf("proc: InjectDeschedule of unknown CPU %d", cpu))
	}
	c := m.CPUs[cpu]
	m.K.At(sim.Time(at), func() {
		c.stalledUntil = sim.Time(at + duration)
		c.ctrl.Deschedule()
	})
}

// GuaranteedFootprintLines returns the speculative footprint the machine
// architecturally guarantees per cache set (§4: cache ways plus victim
// cache entries — "if the system has a 16 entry victim cache and a 4-way
// data cache, the programmer can be sure any transaction accessing 20 cache
// lines or less is ensured a lock-free execution").
func (m *Machine) GuaranteedFootprintLines() int {
	return m.cfg.Coherence.Cache.Ways + m.cfg.Coherence.Cache.VictimEntries
}

// Trace returns the attached protocol tracer (nil unless TraceCapacity was
// set).
func (m *Machine) Trace() *trace.Tracer { return m.Sys.Tracer }

// FlightDump renders the post-mortem flight recorder: the tracer's bounded
// ring of the most recent protocol events (PR 2's pooled event
// representations — the ring IS the flight recorder; attaching it records
// events without scheduling any, so arming the recorder cannot perturb the
// simulated schedule). Empty when no tracer is attached or nothing was
// recorded; failure reports (StallError, checker-violation exits) append it
// alongside the per-CPU progress ledger so a post-mortem shows what happened
// last, not just where each CPU stopped.
func (m *Machine) FlightDump() string {
	t := m.Sys.Tracer
	if t == nil || t.Len() == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  flight recorder (last %d of %d events):", t.Len(), t.Total())
	for _, e := range t.Events() {
		b.WriteString("\n    ")
		b.WriteString(e.String())
	}
	return b.String()
}

// Metrics returns the attached observability instrument set (nil unless
// EnableMetrics was set; all methods on a nil set are no-ops).
func (m *Machine) Metrics() *telemetry.Set { return m.mx }

// Faults returns the attached fault injector (nil unless Config.Faults is
// enabled; all methods on a nil injector are no-ops).
func (m *Machine) Faults() *fault.Injector { return m.faults }

// FaultStats reports how many injections of each kind fired this run (zero
// value when injection is disabled).
func (m *Machine) FaultStats() fault.Stats { return m.faults.Stats() }

// CheckerErr reports functional-checker violations (nil when the checker is
// disabled or everything validated).
func (m *Machine) CheckerErr() error {
	if m.Sys.Check == nil {
		return nil
	}
	return m.Sys.Check.Err()
}

// Cycles returns the parallel execution time: the cycle at which the last
// thread finished.
func (m *Machine) Cycles() sim.Time {
	var max sim.Time
	for _, c := range m.CPUs {
		if c.finish > max {
			max = c.finish
		}
	}
	return max
}

// Lock is one critical-section lock: a test&test&set word (used directly by
// BASE, elided by SLE/TLR) plus optional MCS queue state.
type Lock struct {
	// ID identifies the static lock site for the elision and silent
	// store-pair predictors (the role the acquire PC plays in hardware).
	ID int
	// Addr is the lock word, alone in its cache line.
	Addr memsys.Addr

	mcs   *locks.MCS
	stats telemetry.LockStats
	// prof is the preallocated contention profile, reading stats in place
	// (nil when metrics are disabled).
	prof *telemetry.LockProfile
}

// Stats returns the lock's execution counters.
func (l *Lock) Stats() telemetry.LockStats { return l.stats }

// WaitFree reports whether every critical section under this lock ran
// lock-free (§4's wait-freedom detector).
func (l *Lock) WaitFree() bool { return l.stats.Acquired == 0 && l.stats.Elided > 0 }

func (l *Lock) attachMCS(m *Machine) {
	l.mcs = locks.NewMCS(m.Alloc, len(m.CPUs))
	for _, w := range l.mcs.Words() {
		m.Sys.RegisterLock(w)
	}
}
