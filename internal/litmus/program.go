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

// appendThreadKey appends the thread's key to b: its comparison encoding, a
// byte string that orders threads deterministically, and programs by the
// concatenation of their threads' keys. Ops are (kind, loc) byte pairs,
// then a ';' separator and the critical window's two bytes.
func appendThreadKey(b []byte, t Thread) []byte {
	for _, o := range t.Ops {
		b = append(b, byte(o.Kind), o.Loc)
	}
	return append(b, ';', t.CritLo, t.CritHi)
}

// threadKey encodes one thread for ordering (see appendThreadKey).
func threadKey(t Thread) string { return string(appendThreadKey(nil, t)) }

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
