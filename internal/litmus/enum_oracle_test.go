package litmus

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The byte-key enumerator the tuple enumerator replaced, kept as its
// oracle: it filters whole programs and decides canonicity by building the
// key of every relabelling, with no thread table and no index tuples.

// appendKey appends the program's key to b: the concatenation of its
// threads' keys.
func (p Program) appendKey(b []byte) []byte {
	for _, t := range p.Threads {
		b = appendThreadKey(b, t)
	}
	return b
}

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
// permutation and location renaming.
type canonChecker struct {
	threadPerms, locPerms [][]int
	own, relabelled       []byte
}

func newCanonChecker(threads, locs int) *canonChecker {
	return &canonChecker{threadPerms: permutations(threads), locPerms: permutations(locs)}
}

// isCanonical reports whether no relabelling of p sorts below p's own key.
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

// schemeSensitive applies Enumerate's two filters to a whole program.
func schemeSensitive(p Program) bool {
	ms := make([]locMasks, len(p.Threads))
	for i, t := range p.Threads {
		ms[i] = masksOf(t)
	}
	return sensitive(ms)
}

// schemeSensitiveByThreads is the filter as first written, one thread
// bitmask per location: a location is shared when its writer set is
// non-empty and its accessor set has two members.
func schemeSensitiveByThreads(p Program) bool {
	var shared uint64
	for l := 0; l < p.NumLocs; l++ {
		var writers, accessors uint64
		for ti, t := range p.Threads {
			for _, o := range t.Ops {
				if int(o.Loc) == l {
					accessors |= 1 << ti
					if o.Kind == Store {
						writers |= 1 << ti
					}
				}
			}
		}
		if writers != 0 && accessors&(accessors-1) != 0 {
			shared |= 1 << l
		}
	}
	if shared == 0 {
		return false
	}
	for _, t := range p.Threads {
		for i := t.CritLo; i < t.CritHi; i++ {
			if shared&(1<<t.Ops[i].Loc) != 0 {
				return true
			}
		}
	}
	return false
}

// enumerateByKeys is Enumerate by the oracle: every non-decreasing tuple
// of the key-sorted thread list, filtered by schemeSensitiveByThreads and
// the byte-key canonicity check.
func enumerateByKeys(s Shape) ([]Program, EnumStats) {
	threads := enumerateThreads(s)
	sort.Slice(threads, func(i, j int) bool {
		return threadKey(threads[i]) < threadKey(threads[j])
	})
	var (
		progs []Program
		st    EnumStats
	)
	p := Program{NumLocs: s.Locs, Threads: make([]Thread, s.CPUs)}
	canon := newCanonChecker(s.CPUs, s.Locs)
	var rec func(pos, min int)
	rec = func(pos, min int) {
		if pos == s.CPUs {
			st.Raw++
			if !schemeSensitiveByThreads(p) {
				return
			}
			st.AfterFilters++
			if !canon.isCanonical(p) {
				return
			}
			st.Canonical++
			progs = append(progs, Program{NumLocs: p.NumLocs, Threads: slices.Clone(p.Threads)})
			return
		}
		for i := min; i < len(threads); i++ {
			p.Threads[pos] = threads[i]
			rec(pos+1, i)
		}
	}
	rec(0, 0)
	return progs, st
}

// The tuple enumerator emits exactly the oracle's programs, in its order,
// with the same stats, on both three-way symmetries and the benchmark's
// deep shape.
func TestEnumerateMatchesByteKeyOracle(t *testing.T) {
	for _, s := range []Shape{{2, 2, 3}, {3, 2, 2}, {2, 3, 2}} {
		got, gst := Enumerate(s)
		want, wst := enumerateByKeys(s)
		if gst != wst {
			t.Errorf("%+v: stats %+v, oracle %+v", s, gst, wst)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %d programs, oracle %d", s, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%+v: program %d is %s, oracle %s", s, i, got[i], want[i])
			}
		}
	}
}

// On every raw tuple, the integer canonical check agrees with the byte-key
// check, and the mask filter with the per-location thread-mask filter.
func TestCanonicalTupleMatchesByteKeys(t *testing.T) {
	for _, s := range []Shape{{2, 2, 3}, {3, 2, 2}, {2, 3, 2}} {
		tab := newThreadTable(s)
		canon := newCanonChecker(s.CPUs, s.Locs)
		p := Program{NumLocs: s.Locs, Threads: make([]Thread, s.CPUs)}
		tuple, scratch := make([]uint16, s.CPUs), make([]uint16, s.CPUs)
		checked := 0
		var rec func(pos, min int)
		rec = func(pos, min int) {
			if pos == s.CPUs {
				for k, ti := range tuple {
					p.Threads[k] = tab.threads[ti]
				}
				if got, want := schemeSensitive(p), schemeSensitiveByThreads(p); got != want {
					t.Fatalf("%+v %s: mask filter %v, thread-mask filter %v", s, p, got, want)
				}
				if got, want := tab.canonical(tuple, scratch), canon.isCanonical(p); got != want {
					t.Fatalf("%+v %s: tuple check %v, byte-key check %v", s, p, got, want)
				}
				checked++
				return
			}
			for i := min; i < len(tab.threads); i++ {
				tuple[pos] = uint16(i)
				rec(pos+1, i)
			}
		}
		rec(0, 0)
		if checked == 0 {
			t.Fatalf("%+v: no tuples checked", s)
		}
	}
}
