package proc

import (
	"fmt"
	"strings"

	"tlrsim/internal/core"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
)

// Forward-progress accounting and structured stall reports.
//
// The paper's starvation-freedom argument (§3.1) is global: the oldest
// requester eventually wins its conflicts and commits. The simulator cannot
// prove that theorem, but it can watch it. Every CPU keeps a small progress
// ledger — the cycle of its last forward-progress event (transaction commit,
// lock acquisition, fallback dispatch, critical-section exit, thread
// completion), its abort history, and the lock it last dispatched under —
// and the machine tracks the most recent progress cycle across all CPUs.
//
// When a run dies (event budget, deadlock, or the optional watchdog) the
// error is a *StallError carrying that complete picture plus a paste-able
// reproducer, instead of a bare "budget exhausted" string. The ledger is
// plain integer stores on paths that already exist — no kernel events, no
// allocation, no perturbation of the simulated schedule.

// progressKind classifies a CPU's last forward-progress event.
type progressKind uint8

const (
	progressNone     progressKind = iota // nothing yet
	progressCommit                       // committed an elided critical section
	progressAcquire                      // dispatched a critical section on the acquire path
	progressFallback                     // acquire dispatch forced by elision failure
	progressExit                         // exited an acquired critical section
	progressDone                         // thread finished
)

func (k progressKind) String() string {
	switch k {
	case progressCommit:
		return "commit"
	case progressAcquire:
		return "acquire"
	case progressFallback:
		return "fallback"
	case progressExit:
		return "cs-exit"
	case progressDone:
		return "done"
	}
	return "none"
}

// cpuProgress is the per-CPU forward-progress ledger.
type cpuProgress struct {
	lastAt   sim.Time
	lastKind progressKind

	commits   uint64 // elided critical sections committed
	acquires  uint64 // real lock acquisitions (BASE/MCS and fallbacks)
	fallbacks uint64 // acquire dispatches forced by elision failure
	aborts    uint64 // squashed transaction attempts acknowledged

	// maxRetries is the worst per-attempt restart depth: the largest restart
	// count any single critical-section attempt reached before it committed
	// or escalated to fallback (the degradation-contract bound).
	maxRetries uint64

	lastAbortAt     sim.Time
	lastAbortReason core.Reason

	// lock is the lock of the most recent Critical dispatch (never cleared:
	// a stalled CPU's report names the lock it was last working under).
	lock *Lock
}

// noteProgress records a forward-progress event on this CPU and advances the
// machine-wide watchdog horizon.
func (cpu *CPU) noteProgress(k progressKind) {
	now := cpu.m.K.Now()
	cpu.prog.lastAt = now
	cpu.prog.lastKind = k
	cpu.m.lastProgressAt = now
}

// noteAbort records an acknowledged squash (read at the restart point, where
// the abort reason is consumed).
func (cpu *CPU) noteAbort(r core.Reason) {
	cpu.prog.aborts++
	cpu.prog.lastAbortAt = cpu.m.K.Now()
	cpu.prog.lastAbortReason = r
}

// noteRetries folds one attempt's restart count into the per-CPU worst case.
func (cpu *CPU) noteRetries(n uint64) {
	if n > cpu.prog.maxRetries {
		cpu.prog.maxRetries = n
	}
}

// MaxRetries reports the largest restart count any single critical-section
// attempt on any CPU reached before committing or falling back — the bound
// the degradation contract promises stays finite (and, with
// Config.Faults.RestartCap, capped).
func (m *Machine) MaxRetries() uint64 {
	var worst uint64
	for _, c := range m.CPUs {
		if c.prog.maxRetries > worst {
			worst = c.prog.maxRetries
		}
	}
	return worst
}

// StallKind classifies why a run failed to complete.
type StallKind int

const (
	// StallEventBudget: Config.MaxEvents exhausted (runaway/livelock guard).
	StallEventBudget StallKind = iota
	// StallDeadlock: the event queue drained with threads still blocked.
	StallDeadlock
	// StallWatchdog: no CPU made forward progress within Config.StallCycles.
	StallWatchdog
)

func (k StallKind) String() string {
	switch k {
	case StallEventBudget:
		return "event-budget"
	case StallDeadlock:
		return "deadlock"
	case StallWatchdog:
		return "watchdog"
	}
	return fmt.Sprintf("StallKind(%d)", int(k))
}

// CPUStall is one CPU's progress picture inside a StallError.
type CPUStall struct {
	CPU  int
	Done bool
	Mode core.Mode

	// LastAt/LastKind identify the CPU's most recent forward-progress event
	// ("none" when the thread never reached one).
	LastAt   sim.Time
	LastKind string

	Commits   uint64
	Acquires  uint64
	Fallbacks uint64
	Aborts    uint64

	LastAbortAt     sim.Time
	LastAbortReason core.Reason

	// LockID/LockAddr name the lock of the CPU's most recent Critical
	// dispatch (ID 0 when it never dispatched one).
	LockID   int
	LockAddr memsys.Addr
}

// StallError is the structured report for a run that failed to complete. It
// renders a multi-line diagnosis: the stall kind, the machine configuration,
// fault-injection state, one progress line per CPU, and a paste-able
// reproducer block (the litmus divergence-renderer pattern applied to
// machine-level stalls).
type StallError struct {
	Kind  StallKind
	Cycle sim.Time

	Fired  uint64 // kernel events fired when the run died
	Budget uint64 // Config.MaxEvents
	Window uint64 // Config.StallCycles (0 = watchdog disabled)

	// LastProgressAt is the machine-wide cycle of the last forward-progress
	// event on any CPU.
	LastProgressAt sim.Time

	Scheme Scheme
	Procs  int
	Seed   int64

	// FaultSpec/FaultStats describe the fault injector ("" when disabled).
	FaultSpec  string
	FaultStats string

	// Recoveries counts deadlock-recovery squashes performed before the
	// run still failed (a nonzero count in a StallError means recovery ran
	// out of squashable transactions).
	Recoveries uint64

	CPUs []CPUStall

	// Flight is the rendered flight-recorder dump — the tracer ring's most
	// recent protocol events — or "" when no tracer was attached (see
	// Machine.FlightDump).
	Flight string
}

func (e *StallError) Error() string {
	var b strings.Builder
	switch e.Kind {
	case StallEventBudget:
		fmt.Fprintf(&b, "proc: event budget %d exhausted at cycle %d (livelock?)", e.Budget, e.Cycle)
	case StallDeadlock:
		fmt.Fprintf(&b, "proc: deadlock at cycle %d", e.Cycle)
	case StallWatchdog:
		fmt.Fprintf(&b, "proc: watchdog stall at cycle %d: no forward progress in %d cycles (last at cycle %d)",
			e.Cycle, e.Window, e.LastProgressAt)
	}
	fmt.Fprintf(&b, "\n  machine: scheme=%v procs=%d seed=%d fired=%d", e.Scheme, e.Procs, e.Seed, e.Fired)
	if e.Recoveries > 0 {
		fmt.Fprintf(&b, " recoveries=%d", e.Recoveries)
	}
	if e.FaultSpec != "" {
		fmt.Fprintf(&b, "\n  faults:  %s (fired: %s)", e.FaultSpec, e.FaultStats)
	}
	for _, c := range e.CPUs {
		fmt.Fprintf(&b, "\n  P%d: ", c.CPU)
		if c.Done {
			b.WriteString("done")
		} else {
			fmt.Fprintf(&b, "mode=%v", c.Mode)
		}
		if c.LockID != 0 {
			fmt.Fprintf(&b, " lock=L%d@%v", c.LockID, c.LockAddr)
		}
		fmt.Fprintf(&b, " commits=%d acquires=%d fallbacks=%d aborts=%d",
			c.Commits, c.Acquires, c.Fallbacks, c.Aborts)
		if c.LastKind != "" && c.LastKind != "none" {
			fmt.Fprintf(&b, " last=%s@%d", c.LastKind, c.LastAt)
		}
		if c.Aborts > 0 {
			fmt.Fprintf(&b, " lastAbort=%v@%d", c.LastAbortReason, c.LastAbortAt)
		}
	}
	if e.Flight != "" {
		b.WriteString("\n")
		b.WriteString(e.Flight)
	}
	b.WriteString("\n  reproduce:")
	fmt.Fprintf(&b, "\n    cfg := proc.BaselineConfig(%d, proc.%s, %d)", e.Procs, e.Scheme.Ident(), e.Seed)
	fmt.Fprintf(&b, "\n    cfg.MaxEvents = %d", e.Budget)
	if e.Window > 0 {
		fmt.Fprintf(&b, "\n    cfg.StallCycles = %d", e.Window)
	}
	if e.FaultSpec != "" {
		fmt.Fprintf(&b, "\n    cfg.Faults, _ = fault.ParseSpec(%q)", e.FaultSpec)
	}
	b.WriteString("\n    // then re-run the same workload on proc.NewMachine(cfg)")
	return b.String()
}

// stallError assembles the structured report for a failed run.
func (m *Machine) stallError(kind StallKind) *StallError {
	e := &StallError{
		Kind:           kind,
		Cycle:          m.K.Now(),
		Fired:          m.K.Fired(),
		Budget:         m.cfg.MaxEvents,
		Window:         m.cfg.StallCycles,
		LastProgressAt: m.lastProgressAt,
		Scheme:         m.cfg.Scheme,
		Procs:          m.cfg.Procs,
		Seed:           m.cfg.Seed,
		Recoveries:     m.deadlockRecoveries,
		Flight:         m.FlightDump(),
	}
	if m.faults != nil {
		e.FaultSpec = m.faults.Spec().String()
		e.FaultStats = m.faults.Stats().String()
	}
	for _, c := range m.CPUs {
		cs := CPUStall{
			CPU:             c.id,
			Done:            c.done,
			Mode:            c.eng.Mode(),
			LastAt:          c.prog.lastAt,
			LastKind:        c.prog.lastKind.String(),
			Commits:         c.prog.commits,
			Acquires:        c.prog.acquires,
			Fallbacks:       c.prog.fallbacks,
			Aborts:          c.prog.aborts,
			LastAbortAt:     c.prog.lastAbortAt,
			LastAbortReason: c.prog.lastAbortReason,
		}
		if l := c.prog.lock; l != nil {
			cs.LockID, cs.LockAddr = l.ID, l.Addr
		}
		e.CPUs = append(e.CPUs, cs)
	}
	return e
}

// recoverDeadlock attempts to break a coherence wait cycle after the event
// queue ran dry with threads still blocked. The cycle arises from an
// information-loss race in §3.1.1's probe mechanism: probes are
// edge-triggered and chase the data holder of the moment, so a pending
// requester that a probe merely transited can later fill, become the new
// holder, and park the chain in its deferred queue — with the older
// conflicting transaction now waiting behind it and no message left in the
// system to make the new holder lose (the probeLost flag in
// internal/coherence marks exactly this). Resolving the race eagerly —
// losing at fill whenever an older probe transited — collapses TLR's
// high-contention scaling, so the machine instead recovers lazily, only
// when the cycle has provably closed (the kernel is dry): squash the
// YOUNGEST speculating transaction that is withholding deferred requests.
// Its abort serves the parked requests, data flows onward toward the older
// transactions, and the released thread restarts. Choosing the youngest
// preserves TLR's fairness invariant — the oldest transaction is never
// squashed — and makes recovery deterministic. Returns false when no
// candidate remains (the stall is not this cycle; the caller reports it).
func (m *Machine) recoverDeadlock() bool {
	var victim *CPU
	for _, c := range m.CPUs {
		if c.done || !c.eng.Speculating() || c.eng.Aborted() || c.eng.DeferredLen() == 0 {
			continue
		}
		// Keep the younger of victim and c. Stamp.Before treats invalid
		// stamps as latest (§2.2: untimestamped requests carry the newest
		// timestamp in the system), so untimestamped transactions are
		// squashed before timestamped ones.
		if victim == nil || victim.eng.StampBefore(victim.eng.Stamp(), c.eng.Stamp()) {
			victim = c
		}
	}
	if victim == nil {
		return false
	}
	m.deadlockRecoveries++
	victim.ctrl.AbortTxn(core.ReasonConflict)
	return true
}

// DeadlockRecoveries reports how many deadlock-recovery squashes the run
// needed (0 in any run the protocol kept flowing by itself).
func (m *Machine) DeadlockRecoveries() uint64 { return m.deadlockRecoveries }
