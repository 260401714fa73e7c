package litmus

import (
	"slices"
	"sort"
)

// Shape bounds the program grammar: CPUs threads, up to Locs shared
// locations, and 1..MaxOps ops per thread.
type Shape struct {
	CPUs   int
	Locs   int
	MaxOps int
}

// EnumStats reports how the raw grammar was narrowed to the emitted program
// list. The stages are sequential: Raw counts every thread tuple the grammar
// produces; the filters then discard tuples whose elision behaviour is
// provably identical to an emitted program's (see the filter functions for
// the arguments); symmetry keeps one representative per equivalence class.
type EnumStats struct {
	// Raw counts unordered thread tuples before any filtering.
	Raw int
	// AfterFilters counts tuples that are scheme-sensitive: at least one
	// effective critical section and at least one cross-thread communication.
	AfterFilters int
	// Canonical counts emitted programs: one per symmetry class (thread
	// permutation x location renaming).
	Canonical int
}

// Enumerate generates every litmus program of the shape, deduplicated up to
// thread permutation and location renaming, in a deterministic order.
//
// Two filters discard programs whose elided execution provably cannot
// diverge from the locked one, so running them would only burn the checking
// budget:
//
//   - no effective critical section: elision only changes how Critical
//     executes, so a program whose critical sections are all absent — or
//     touch only locations no other thread accesses — behaves identically
//     under every scheme. (A fully thread-private critical section is
//     invisible to other threads: its loads see only the thread's own
//     stores, and the mutual exclusion it exerts through the shared lock
//     affects timing only, which the reference outcome set quantifies over
//     anyway. The variant of the program with that window uncritted is
//     enumerated and checked.)
//   - no cross-thread communication: if no location is written by one
//     thread and accessed by another, every load value and final memory
//     word is fixed regardless of interleaving — the outcome set is a
//     singleton under any scheme.
func Enumerate(s Shape) ([]Program, EnumStats) {
	threads := enumerateThreads(s)
	// Tuples are generated non-decreasing in thread KEY order so that the
	// symmetry-class representative (minimal concatenated key over thread
	// permutations and location renamings) is always among the generated
	// tuples. Key order and concatenation order agree because no thread key
	// is a prefix of another: the ';' separator byte cannot occur among op
	// or crit bytes, so any two distinct keys differ at a position both
	// contain.
	sort.Slice(threads, func(i, j int) bool {
		return threadKey(threads[i]) < threadKey(threads[j])
	})
	var (
		progs []Program
		st    EnumStats
	)
	// Every tuple is filtered in one scratch program; only emitted programs
	// get a Threads slice of their own.
	p := Program{NumLocs: s.Locs, Threads: make([]Thread, s.CPUs)}
	canon := newCanonChecker(s.CPUs, s.Locs)
	// Unordered tuples: thread indices are non-decreasing. Thread
	// permutation symmetry makes ordered tuples redundant; the canonical
	// check below still handles the residual symmetry interactions with
	// location renaming.
	var rec func(pos, min int)
	rec = func(pos, min int) {
		if pos == s.CPUs {
			st.Raw++
			if !schemeSensitive(p) {
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

// enumerateThreads lists every thread the grammar admits, in a fixed
// lexicographic order: by op count, then by op sequence (base 2*Locs), then
// by critical window (none first, then by (lo, hi)).
func enumerateThreads(s Shape) []Thread {
	var out []Thread
	for k := 1; k <= s.MaxOps; k++ {
		nseq := 1
		for i := 0; i < k; i++ {
			nseq *= 2 * s.Locs
		}
		for seq := 0; seq < nseq; seq++ {
			ops := make([]Op, k)
			v := seq
			for i := 0; i < k; i++ {
				d := v % (2 * s.Locs)
				v /= 2 * s.Locs
				ops[i] = Op{Kind: OpKind(d % 2), Loc: uint8(d / 2)}
			}
			out = append(out, Thread{Ops: ops})
			for lo := 0; lo < k; lo++ {
				for hi := lo + 1; hi <= k; hi++ {
					out = append(out, Thread{Ops: ops, CritLo: uint8(lo), CritHi: uint8(hi)})
				}
			}
		}
	}
	return out
}

// schemeSensitive applies the two filters documented on Enumerate. It
// builds one thread bitmask per location at a time (bit i: thread i), so it
// allocates nothing; programs have at most 64 threads and 64 locations.
func schemeSensitive(p Program) bool {
	// shared has bit l set when some thread writes l and a different thread
	// accesses it: the writer set is non-empty and the accessor set, which
	// contains it, has at least two members.
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
		return false // no cross-thread communication
	}
	// Effective critical section: a crit window touching a shared location.
	for _, t := range p.Threads {
		for i := t.CritLo; i < t.CritHi; i++ {
			if shared&(1<<t.Ops[i].Loc) != 0 {
				return true
			}
		}
	}
	return false
}
