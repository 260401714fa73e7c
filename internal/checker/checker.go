// Package checker is the functional checker that runs behind the timing
// simulator (the paper's §5.3 methodology: "a functional checker simulator
// executes behind the detailed timing simulator only for checking
// correctness"). It maintains a shadow memory in architectural (commit)
// order and validates:
//
//   - serializability of transactions: at commit, every value the
//     transaction read must still equal the shadow state, and its writes
//     are applied atomically;
//   - coherence of plain accesses: every non-speculative load observes
//     exactly the last architecturally completed store.
//
// A violation means the timing model broke the memory consistency contract;
// it is reported as an error, never silently ignored.
package checker

import (
	"fmt"

	"tlrsim/internal/memsys"
)

// Kind classifies a violation: which contract the timing model broke.
type Kind int

const (
	// TxnReadStale: a committed transaction read a value that no longer
	// matches the architectural state at its commit point (lost update or
	// broken conflict detection).
	TxnReadStale Kind = iota
	// LoadIncoherent: a non-speculative load observed something other than
	// the last architecturally completed store.
	LoadIncoherent
	// RMWStale: an atomic read-modify-write observed a stale old value.
	RMWStale
)

// String names the kind for violation messages.
func (k Kind) String() string {
	switch k {
	case TxnReadStale:
		return "txn-read-stale"
	case LoadIncoherent:
		return "load-incoherent"
	case RMWStale:
		return "rmw-stale"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Violation is one structural divergence record: enough machine-readable
// context (which CPU, which word, observed vs architectural value, which
// commit) for a harness to triage programmatically instead of parsing error
// strings.
type Violation struct {
	Kind Kind
	CPU  int
	Addr memsys.Addr
	// Got is the value the timing model produced; Want the architectural
	// (shadow) value it should have been.
	Got  uint64
	Want uint64
	// Txn is the commit ordinal for TxnReadStale violations, 0 otherwise.
	Txn uint64
}

// String renders the violation for error messages.
func (v Violation) String() string {
	switch v.Kind {
	case TxnReadStale:
		return fmt.Sprintf("P%d commit #%d: read %s = %d, architectural value is %d",
			v.CPU, v.Txn, v.Addr, v.Got, v.Want)
	case LoadIncoherent:
		return fmt.Sprintf("P%d plain load %s = %d, architectural value is %d",
			v.CPU, v.Addr, v.Got, v.Want)
	case RMWStale:
		return fmt.Sprintf("P%d RMW %s observed %d, architectural value is %d",
			v.CPU, v.Addr, v.Got, v.Want)
	default:
		return fmt.Sprintf("P%d %s %s got %d want %d", v.CPU, v.Kind, v.Addr, v.Got, v.Want)
	}
}

// Checker is the shadow-memory validator. The zero value is not usable;
// construct with New. The simulator is single-threaded, so Checker needs no
// locking.
type Checker struct {
	shadow map[memsys.Addr]uint64

	txns       uint64
	plainOps   uint64
	violations []Violation
	dropped    int // violations beyond the retention limit (counted, not kept)
	limit      int
}

// New returns an empty checker (shadow state all zero, matching the
// simulated memory image before Setup).
func New() *Checker {
	return &Checker{shadow: make(map[memsys.Addr]uint64), limit: 16}
}

// Preload installs a word written during workload setup (outside simulated
// time).
func (c *Checker) Preload(a memsys.Addr, v uint64) { c.shadow[a] = v }

// Reset rewinds the checker to the state New constructs, keeping its map and
// violation buffer.
func (c *Checker) Reset() {
	clear(c.shadow)
	c.txns, c.plainOps = 0, 0
	c.violations = c.violations[:0]
	c.dropped = 0
}

// CommitTxn validates one committed transaction: reads must match the
// shadow at this (commit) point — TLR's conflict detection guarantees no
// writer intervened between read and commit — then writes apply atomically.
// Both sets are walked in address order, so the violations a commit reports
// come out in address order.
func (c *Checker) CommitTxn(cpu int, reads, writes *memsys.WordSet) {
	c.txns++
	for i := range reads.Len() {
		line, mask, words := reads.Entry(i)
		for w, v := range words {
			if mask&(1<<w) == 0 {
				continue
			}
			a := line + memsys.Addr(w*memsys.WordBytes)
			if got := c.shadow[a]; got != v {
				c.report(Violation{Kind: TxnReadStale, CPU: cpu, Addr: a, Got: v, Want: got, Txn: c.txns})
			}
		}
	}
	for i := range writes.Len() {
		line, mask, words := writes.Entry(i)
		for w, v := range words {
			if mask&(1<<w) != 0 {
				c.shadow[line+memsys.Addr(w*memsys.WordBytes)] = v
			}
		}
	}
}

// AbortTxn records a squashed transaction (its reads and writes vanish; the
// checker only counts it).
func (c *Checker) AbortTxn(cpu int) {}

// PlainLoad validates a non-speculative load against the shadow.
// forwarded marks loads satisfied by a fill that was ordered before an
// intervening writer (fill-and-forward): those legally observe the older
// value and are exempt from the equality check.
func (c *Checker) PlainLoad(cpu int, a memsys.Addr, v uint64, forwarded bool) {
	c.plainOps++
	if forwarded {
		return
	}
	if got := c.shadow[a]; got != v {
		c.report(Violation{Kind: LoadIncoherent, CPU: cpu, Addr: a, Got: v, Want: got})
	}
}

// PlainStore applies a non-speculative store to the shadow.
func (c *Checker) PlainStore(cpu int, a memsys.Addr, v uint64) {
	c.plainOps++
	c.shadow[a] = v
}

// PlainRMW validates and applies an atomic read-modify-write: the observed
// old value must match the shadow; write applies the new value (skipped for
// failed conditionals).
func (c *Checker) PlainRMW(cpu int, a memsys.Addr, old, new uint64, wrote bool) {
	c.plainOps++
	if got := c.shadow[a]; got != old {
		c.report(Violation{Kind: RMWStale, CPU: cpu, Addr: a, Got: old, Want: got})
	}
	if wrote {
		c.shadow[a] = new
	}
}

func (c *Checker) report(v Violation) {
	if len(c.violations) < c.limit {
		c.violations = append(c.violations, v)
	} else {
		c.dropped++
	}
}

// Violations returns the retained violation records (at most the retention
// limit; the total including dropped ones is reflected in Err).
func (c *Checker) Violations() []Violation { return c.violations }

// ViolationError is the error Err returns: the total violation count plus
// the first violation's structured record, so callers can branch on the
// Kind (through errors.As, even when wrapped or joined) instead of parsing
// the message.
type ViolationError struct {
	// Count is the total number of violations, including any dropped beyond
	// the retention limit.
	Count int
	// First is the first violation recorded.
	First Violation
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("checker: %d violation(s), first: %s", e.Count, e.First)
}

// Kind reports which memory-consistency contract the first violation broke.
func (e *ViolationError) Kind() Kind { return e.First.Kind }

// Err summarises the accumulated violations as a *ViolationError, or nil.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return &ViolationError{Count: len(c.violations) + c.dropped, First: c.violations[0]}
}

// Stats reports how much the checker has validated.
func (c *Checker) Stats() (txns, plainOps uint64) { return c.txns, c.plainOps }

// Word returns the shadow value at a (test support).
func (c *Checker) Word(a memsys.Addr) uint64 { return c.shadow[a] }
