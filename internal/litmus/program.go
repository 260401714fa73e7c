// Package litmus systematically checks elision correctness: it enumerates
// all small concurrent programs over a shape grammar (loads and stores to a
// few shared locations, with an optional critical-section window per thread,
// all critical sections protected by one lock), computes the complete
// outcome set the lock-based program may produce under TSO, runs each
// program on the simulated machine under BASE and under the eliding schemes
// across a sweep of seeds and scheduling perturbations, and asserts the
// elided outcome set is contained in the locked outcome set.
//
// This is the dynamic analogue of the memalloy Alloy lock-elision mapping
// (exec_x86L / x86_lock_elision): critical sections become transactions, and
// the transformed execution must admit no behaviour the lock-based execution
// could not produce. Any divergence is emitted as a minimal, ready-to-paste
// Go reproducer test.
package litmus

import (
	"bytes"
	"fmt"
	"strings"
)

// OpKind is a litmus operation kind.
type OpKind uint8

const (
	// Load reads a shared location.
	Load OpKind = iota
	// Store writes a distinct, position-derived value to a shared location.
	Store
)

// Op is one operation of a litmus thread. Store values are not part of the
// representation: a store's value is derived from its (thread, op) position
// by StoreVal, so every store in a program writes a distinct value and
// outcomes identify which store each load observed.
type Op struct {
	Kind OpKind
	Loc  uint8
}

// Thread is one litmus thread: up to a few ops, with at most one critical
// section wrapping the contiguous window [CritLo, CritHi). CritLo == CritHi
// means the thread takes no lock.
type Thread struct {
	Ops            []Op
	CritLo, CritHi uint8
}

// HasCrit reports whether the thread contains a critical section.
func (t Thread) HasCrit() bool { return t.CritLo != t.CritHi }

// Program is one litmus program: one thread per CPU, NumLocs shared
// locations (indices 0..NumLocs-1), and a single lock protecting every
// critical section.
type Program struct {
	NumLocs int
	Threads []Thread
}

// StoreVal returns the value the store at (thread tid, op index idx) writes.
// Values are distinct across every store position in a program (op indices
// are < 8 by construction) and never zero, so they are distinguishable from
// the initial memory state.
func StoreVal(tid, idx int) uint64 { return uint64(tid*8 + idx + 1) }

// String renders the program compactly, e.g.
// "P0: Lx Sy | P1: [Sx Ly]" where [] marks the critical section, and
// locations are letters x, y, z.
func (p Program) String() string {
	var b strings.Builder
	for i, t := range p.Threads {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "P%d:", i)
		for j, o := range t.Ops {
			b.WriteByte(' ')
			if t.HasCrit() && j == int(t.CritLo) {
				b.WriteByte('[')
			}
			if o.Kind == Load {
				b.WriteByte('L')
			} else {
				b.WriteByte('S')
			}
			b.WriteByte(locName(o.Loc))
			if t.HasCrit() && j == int(t.CritHi)-1 {
				b.WriteByte(']')
			}
		}
	}
	return b.String()
}

func locName(l uint8) byte { return byte('x' + l) }

// appendKey appends the program's key to b: its canonical comparison
// encoding, a byte string that orders programs deterministically. Threads
// are separated by ';', ops are (kind, loc) byte pairs, and the critical
// window is two trailing bytes.
func (p Program) appendKey(b []byte) []byte {
	for _, t := range p.Threads {
		b = appendThreadKey(b, t)
	}
	return b
}

func appendThreadKey(b []byte, t Thread) []byte {
	for _, o := range t.Ops {
		b = append(b, byte(o.Kind), o.Loc)
	}
	return append(b, ';', t.CritLo, t.CritHi)
}

// threadKey encodes one thread for ordering (see appendKey).
func threadKey(t Thread) string { return string(appendThreadKey(nil, t)) }

// appendRelabelledKey appends the key of the program relabelled by a
// symmetry — thread order threadPerm, locations renamed through locPerm —
// without building the relabelled program.
func (p Program) appendRelabelledKey(b []byte, threadPerm, locPerm []int) []byte {
	for _, src := range threadPerm {
		t := p.Threads[src]
		for _, o := range t.Ops {
			b = append(b, byte(o.Kind), byte(locPerm[o.Loc]))
		}
		b = append(b, ';', t.CritLo, t.CritHi)
	}
	return b
}

// canonChecker decides whether a program is its symmetry class's
// representative: the one whose key is minimal over every thread
// permutation and location renaming. It holds the permutations of one
// shape and two reused key buffers, so a check allocates nothing.
type canonChecker struct {
	threadPerms, locPerms [][]int
	own, relabelled       []byte
}

func newCanonChecker(threads, locs int) *canonChecker {
	return &canonChecker{threadPerms: permutations(threads), locPerms: permutations(locs)}
}

// isCanonical reports whether no relabelling of p sorts below p's own key.
// p must have the thread and location counts the checker was built for.
func (c *canonChecker) isCanonical(p Program) bool {
	c.own = p.appendKey(c.own[:0])
	for _, tp := range c.threadPerms {
		for _, lp := range c.locPerms {
			c.relabelled = p.appendRelabelledKey(c.relabelled[:0], tp, lp)
			if bytes.Compare(c.relabelled, c.own) < 0 {
				return false
			}
		}
	}
	return true
}

// permutations returns all permutations of 0..n-1 in a deterministic order.
// n is at most 3 here, so the simple recursive construction is fine.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used []bool)
	rec = func(cur []int, used []bool) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				rec(append(cur, i), used)
				used[i] = false
			}
		}
	}
	rec(nil, make([]bool, n))
	return out
}
