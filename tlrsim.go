// Package tlrsim is an execution-driven multiprocessor simulator that
// reproduces "Transactional Lock-Free Execution of Lock-Based Programs"
// (Rajwar & Goodman, ASPLOS 2002).
//
// The library models a chip multiprocessor with MOESI broadcast-snooping
// caches on a split-transaction bus (the paper's Sun-Gigaplane-style target,
// Table 2) and implements Speculative Lock Elision (SLE) and Transactional
// Lock Removal (TLR) in the cache controllers: lock-based critical sections
// execute as optimistic lock-free transactions, with timestamp-based fair
// conflict resolution, request deferral, and marker/probe propagation
// providing serializability, failure atomicity, and starvation freedom even
// under data conflicts.
//
// Workloads are ordinary Go functions run against simulated memory:
//
//	cfg := tlrsim.DefaultConfig(8, tlrsim.TLR)
//	m := tlrsim.NewMachine(cfg)
//	lock := m.NewLock()
//	counter := m.Alloc.PaddedWord()
//	progs := make([]func(*tlrsim.TC), 8)
//	for i := range progs {
//		progs[i] = func(tc *tlrsim.TC) {
//			for n := 0; n < 1000; n++ {
//				tc.Critical(lock, func() {
//					tc.Store(counter, tc.Load(counter)+1)
//				})
//			}
//		}
//	}
//	if err := m.Run(progs); err != nil { ... }
//	fmt.Println(m.Sys.ArchWord(counter), m.Cycles())
//
// Five synchronisation schemes are selectable (§5): BASE (test&test&set),
// BASE+SLE, BASE+SLE+TLR, the TLR-strict-ts ablation, and MCS queue locks.
// The Experiments API regenerates every table and figure of the paper's
// evaluation; see EXPERIMENTS.md for paper-vs-measured results.
package tlrsim

import (
	"tlrsim/internal/checker"
	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// Scheme selects the synchronisation configuration under evaluation.
type Scheme = proc.Scheme

// The five schemes of the paper's evaluation (§5).
const (
	// Base executes test&test&set lock acquisitions literally.
	Base = proc.Base
	// SLE elides locks, falling back to acquisition on data conflicts.
	SLE = proc.SLE
	// TLR elides locks and resolves conflicts with timestamps + deferral.
	TLR = proc.TLR
	// TLRStrictTS disables the §3.2 single-block relaxation.
	TLRStrictTS = proc.TLRStrictTS
	// MCS uses software queue locks.
	MCS = proc.MCS
)

// CM selects the contention-management policy eliding schemes (SLE/TLR) use
// to resolve conflicting remote requests (Config.Policy.CM and
// ExperimentOptions.CM). The zero value is CMTimestamp — the paper's policy —
// under which behaviour is bit-identical to a build without the policy seam.
type CM = core.CM

// The five contention-management policies.
const (
	// CMTimestamp is the paper's policy: fair timestamp ordering with
	// request deferral and the §3.2 single-block relaxation.
	CMTimestamp = core.CMTimestamp
	// CMStrictTS is CMTimestamp without the §3.2 relaxation.
	CMStrictTS = core.CMStrictTS
	// CMRequesterWins always services the incoming request (the requester
	// wins; the holder restarts), with a bounded-restart fallback.
	CMRequesterWins = core.CMRequesterWins
	// CMBackoff is CMRequesterWins plus seeded deterministic exponential
	// restart backoff with jitter.
	CMBackoff = core.CMBackoff
	// CMKarma prioritises the transaction that has lost the most work:
	// accumulated aborted cycles raise its priority across restarts.
	CMKarma = core.CMKarma
)

// ParseCM parses a policy name ("timestamp", "strict-ts", "requester-wins",
// "backoff", "karma") as accepted by the tlrsim -cm flag.
func ParseCM(s string) (CM, error) { return core.ParseCM(s) }

// CMs returns every contention-management policy in enumeration order.
func CMs() []CM { return core.CMs() }

// Config assembles a simulated machine; DefaultConfig fills in the paper's
// Table 2 parameters.
type Config = proc.Config

// Machine is one simulated multiprocessor.
type Machine = proc.Machine

// TC is the thread context workload code uses to access simulated memory.
type TC = proc.TC

// Lock is a critical-section lock (test&test&set word plus optional MCS
// queue state), created with Machine.NewLock.
type Lock = proc.Lock

// Addr is a simulated physical address.
type Addr = memsys.Addr

// Workload is a runnable benchmark: setup, per-CPU programs, and a
// validation oracle.
type Workload = workloads.Workload

// Run is the aggregate measurement of one simulation.
type Run = stats.Run

// FaultSpec configures deterministic fault injection (Config.Faults and
// ExperimentOptions.Faults). The zero Spec is fully inert; runs are pure
// functions of (Config, Seed) with or without injection.
type FaultSpec = fault.Spec

// ParseFaultSpec parses a comma-separated fault spec such as
// "nack=25,abort=10:conflict,cap=16,seed=7"; see internal/fault for the
// key reference. The empty string parses to the inert zero Spec.
func ParseFaultSpec(s string) (FaultSpec, error) { return fault.ParseSpec(s) }

// StallError is the structured diagnosis of a run that failed to complete
// (event-budget exhaustion, deadlock, or a forward-progress watchdog stall):
// per-CPU progress ledgers plus a paste-able reproducer. Extract with
// errors.As.
type StallError = proc.StallError

// ViolationError is the functional checker's typed verdict when the timing
// model broke the memory-consistency contract; its Kind method classifies
// which contract. Extract with errors.As.
type ViolationError = checker.ViolationError

// DefaultConfig returns the paper's Table 2 target system: 128 KB 4-way L1
// caches with 64-byte lines and a 16-entry victim cache, a 64-line
// speculative write buffer, MOESI broadcast snooping with 20-cycle snoop and
// data latencies, 12-cycle L2, 70-cycle memory, LL/SC synchronisation, a
// 128-entry read-modify-write predictor, and elision nesting depth 8.
func DefaultConfig(procs int, scheme Scheme) Config {
	return proc.BaselineConfig(procs, scheme, 2002)
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) *Machine { return proc.NewMachine(cfg) }

// RunWorkload builds a machine, runs the workload on every CPU, checks
// coherence invariants, and validates the workload's oracle.
func RunWorkload(cfg Config, w Workload) (*Machine, error) {
	return workloads.Run(cfg, w)
}

// Collect aggregates a finished machine's counters.
func Collect(m *Machine) *Run { return stats.Collect(m) }
