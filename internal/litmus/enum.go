package litmus

import (
	"math"
	"slices"
	"strings"
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
//
// The programs share one Threads slab: each program's Threads is a
// capacity-capped window of it, and every Thread's Ops is shared with the
// other programs that use the same thread.
func Enumerate(s Shape) ([]Program, EnumStats) {
	ps := enumerate(s)
	n := ps.len()
	progs := make([]Program, n)
	slab := make([]Thread, n*s.CPUs)
	for i := range progs {
		progs[i].Threads = slab[i*s.CPUs : (i+1)*s.CPUs : (i+1)*s.CPUs]
		ps.fill(&progs[i], i)
	}
	return progs, ps.stats
}

// programSet is an enumerated program list in compact form: the shape's
// thread table and, per program, the table indices of its threads. It holds
// no pointer per program, so a sweep's state does not grow with the list.
type programSet struct {
	tab  *threadTable
	cpus int
	n    int // programs
	// chunks holds cpus entries per program, non-decreasing, chunkPrograms
	// programs to a chunk. The list grows a chunk at a time, so building it
	// leaves none of the garbage a doubling slice would.
	chunks [][]uint16
	stats  EnumStats
}

// chunkPrograms is the programs per programSet chunk.
const chunkPrograms = 1 << 12

func (ps *programSet) len() int { return ps.n }

// tuple returns program i's thread indices.
func (ps *programSet) tuple(i int) []uint16 {
	j := i % chunkPrograms * ps.cpus
	return ps.chunks[i/chunkPrograms][j : j+ps.cpus]
}

// add appends a program's thread indices.
func (ps *programSet) add(tuple []uint16) {
	if ps.n%chunkPrograms == 0 {
		ps.chunks = append(ps.chunks, make([]uint16, 0, chunkPrograms*ps.cpus))
	}
	c := &ps.chunks[len(ps.chunks)-1]
	*c = append(*c, tuple...)
	ps.n++
}

// fill makes p program i. p.Threads must have the shape's CPU count.
func (ps *programSet) fill(p *Program, i int) {
	p.NumLocs = ps.tab.locs
	for k, ti := range ps.tuple(i) {
		p.Threads[k] = ps.tab.threads[ti]
	}
}

// enumerate lists the shape's canonical, scheme-sensitive programs as
// thread-index tuples, in Enumerate's order.
//
// Tuples are generated non-decreasing, in lexicographic order of their
// indices into the key-sorted thread table, so that the symmetry-class
// representative (minimal concatenated key over thread permutations and
// location renamings) is always among the generated tuples. Comparing two
// programs' keys is comparing their index tuples: no thread key is a prefix
// of another (the ';' separator byte cannot occur among op or crit bytes,
// so any two distinct keys differ at a position both contain), hence the
// first differing thread decides.
func enumerate(s Shape) *programSet {
	tab := newThreadTable(s)
	ps := &programSet{tab: tab, cpus: s.CPUs}
	tuple := make([]uint16, s.CPUs)
	scratch := make([]uint16, s.CPUs)
	masks := make([]locMasks, s.CPUs)
	// Unordered tuples: thread indices are non-decreasing. Thread
	// permutation symmetry makes ordered tuples redundant; the canonical
	// check below still handles the residual symmetry interactions with
	// location renaming.
	var rec func(pos, min int)
	rec = func(pos, min int) {
		if pos == s.CPUs {
			ps.stats.Raw++
			for k, ti := range tuple {
				masks[k] = tab.masks[ti]
			}
			if !sensitive(masks) {
				return
			}
			ps.stats.AfterFilters++
			if !tab.canonical(tuple, scratch) {
				return
			}
			ps.stats.Canonical++
			ps.add(tuple)
			return
		}
		for i := min; i < len(tab.threads); i++ {
			tuple[pos] = uint16(i)
			rec(pos+1, i)
		}
	}
	rec(0, 0)
	return ps
}

// threadTable is every thread the grammar admits, sorted by key, with what
// the filters and the symmetry check need of each: its location masks and
// its index under every location renaming.
type threadTable struct {
	locs    int
	threads []Thread
	masks   []locMasks
	// relabel[lp][i] is the index of thread i with its locations renamed
	// through the lp-th permutation of permutations(locs).
	relabel [][]uint16
}

// locMasks are one thread's location sets, bit l for location l: the
// locations it accesses, the ones it stores to, and the ones its critical
// window accesses.
type locMasks struct {
	access, write, crit uint64
}

func masksOf(t Thread) locMasks {
	var m locMasks
	for i, o := range t.Ops {
		bit := uint64(1) << o.Loc
		m.access |= bit
		if o.Kind == Store {
			m.write |= bit
		}
		if i >= int(t.CritLo) && i < int(t.CritHi) {
			m.crit |= bit
		}
	}
	return m
}

func newThreadTable(s Shape) *threadTable {
	if s.Locs > 64 {
		panic("litmus: more than 64 locations")
	}
	type keyed struct {
		key string
		t   Thread
	}
	var ks []keyed
	for _, t := range enumerateThreads(s) {
		ks = append(ks, keyed{threadKey(t), t})
	}
	if len(ks) > math.MaxUint16+1 {
		panic("litmus: shape admits more than 65536 threads")
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	tab := &threadTable{locs: s.Locs, threads: make([]Thread, len(ks)), masks: make([]locMasks, len(ks))}
	at := make(map[string]uint16, len(ks))
	for i, k := range ks {
		tab.threads[i], tab.masks[i] = k.t, masksOf(k.t)
		at[k.key] = uint16(i)
	}
	ops := make([]Op, s.MaxOps)
	var key []byte
	for _, lp := range permutations(s.Locs) {
		rl := make([]uint16, len(ks))
		for i, t := range tab.threads {
			r := Thread{Ops: ops[:len(t.Ops)], CritLo: t.CritLo, CritHi: t.CritHi}
			for j, o := range t.Ops {
				r.Ops[j] = Op{Kind: o.Kind, Loc: uint8(lp[o.Loc])}
			}
			key = appendThreadKey(key[:0], r)
			rl[i] = at[string(key)]
		}
		tab.relabel = append(tab.relabel, rl)
	}
	return tab
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

// sensitive reports whether a program with threads of masks ms passes both
// filters: some location is stored to by one thread and accessed by
// another (shared), and some critical window accesses a shared location.
func sensitive(ms []locMasks) bool {
	var shared uint64
	for k := range ms {
		var others uint64
		for j := range ms {
			if j != k {
				others |= ms[j].access
			}
		}
		shared |= ms[k].write & others
	}
	if shared == 0 {
		return false // no cross-thread communication
	}
	for _, m := range ms {
		if m.crit&shared != 0 {
			return true
		}
	}
	return false
}

// canonical reports whether the non-decreasing tuple is its symmetry
// class's representative: no relabelling sorts below it. Under a location
// renaming, the thread permutation giving the smallest tuple is the one
// that sorts the renamed indices, so one sort per renaming covers every
// thread permutation. scratch must have len(tuple).
func (tab *threadTable) canonical(tuple, scratch []uint16) bool {
	for _, rl := range tab.relabel {
		for k, ti := range tuple {
			scratch[k] = rl[ti]
		}
		slices.Sort(scratch)
		if slices.Compare(scratch, tuple) < 0 {
			return false
		}
	}
	return true
}
