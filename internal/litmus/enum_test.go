package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// Golden enumeration counts. These pin the grammar: any change to the op
// set, the critical-window rules, the filters, or the symmetry reduction
// shows up here as a count shift that must be justified and re-derived.
func TestEnumerateGoldenCounts(t *testing.T) {
	cases := []struct {
		shape Shape
		want  EnumStats
	}{
		// 2 CPUs x 2 locs x exactly 1 op: 8 threads with no crit window, 4
		// more with the single op critted -> 12 threads, 78 unordered pairs
		// minus 42 with a crit-op... counted by the enumerator itself; the
		// values are frozen from the first verified run and cross-checked by
		// TestEnumerateCanonicalInvariants below.
		{Shape{CPUs: 2, Locs: 2, MaxOps: 1}, EnumStats{Raw: 36, AfterFilters: 10, Canonical: 5}},
		{Shape{CPUs: 2, Locs: 2, MaxOps: 2}, EnumStats{Raw: 2628, AfterFilters: 1691, Canonical: 850}},
		{Shape{CPUs: 2, Locs: 3, MaxOps: 2}, EnumStats{Raw: 12246, AfterFilters: 6288, Canonical: 1142}},
	}
	for _, c := range cases {
		progs, st := Enumerate(c.shape)
		if st != c.want {
			t.Errorf("Enumerate(%+v) stats = %+v, want %+v", c.shape, st, c.want)
		}
		if len(progs) != st.Canonical {
			t.Errorf("Enumerate(%+v): %d programs vs Canonical=%d", c.shape, len(progs), st.Canonical)
		}
	}
}

// Enumeration must be deterministic: same shape, same program list, same
// order — the checker reports divergences by enumeration order, and CI
// compares counts across runs.
func TestEnumerateDeterministic(t *testing.T) {
	a, sa := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	b, sb := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	if sa != sb {
		t.Fatalf("stats differ across runs: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("program counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].key() != b[i].key() {
			t.Fatalf("program %d differs across runs: %s vs %s", i, a[i], b[i])
		}
	}
}

// Every emitted program must be its own symmetry-class representative, and
// no two emitted programs may share a class: together with the golden counts
// this proves the symmetry reduction neither drops a class nor emits
// duplicates.
func TestEnumerateCanonicalInvariants(t *testing.T) {
	progs, _ := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	classes := make(map[string]Program, len(progs))
	for _, p := range progs {
		ck := p.canonicalKey()
		if p.key() != ck {
			t.Fatalf("emitted program %s is not canonical: key %q != canonical %q", p, p.key(), ck)
		}
		if prev, dup := classes[ck]; dup {
			t.Fatalf("programs %s and %s share a symmetry class", prev, p)
		}
		classes[ck] = p
	}
}

// Relabelling an emitted program by any symmetry must never produce a
// program with a smaller key (spot-check of canonicalKey's minimality on a
// sample), and the enumerator's in-place relabelled key must equal the key
// of the relabelled program built in full.
func TestCanonicalKeyIsMinimal(t *testing.T) {
	progs, _ := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	for i := 0; i < len(progs); i += 97 {
		p := progs[i]
		for _, tp := range permutations(len(p.Threads)) {
			for _, lp := range permutations(p.NumLocs) {
				k := p.relabel(tp, lp).key()
				if k < p.key() {
					t.Fatalf("%s: relabel %v/%v gives smaller key %q", p, tp, lp, k)
				}
				if got := string(p.appendRelabelledKey(nil, tp, lp)); got != k {
					t.Fatalf("%s: appendRelabelledKey %v/%v = %q, relabelled program key %q", p, tp, lp, got, k)
				}
			}
		}
	}
}

// The enumerator decides canonicity on reused buffers and filters tuples in
// a scratch program. Pin its exact output on three shapes, including the
// benchmark's 2x2x3 and both three-way symmetries (three threads, three
// locations): the stats, and a SHA-256 over the emitted programs' String()
// lines in order. Any change to which programs are emitted, or their order,
// shows up here.
func TestEnumerateDigests(t *testing.T) {
	cases := []struct {
		shape  Shape
		stats  EnumStats
		digest string
	}{
		{Shape{CPUs: 2, Locs: 2, MaxOps: 3}, EnumStats{Raw: 135460, AfterFilters: 116831, Canonical: 58483},
			"90d60c90e9b8e43b61cbac7d9411406ebdb8eada8bf5cf7eed2dac91d968037b"},
		{Shape{CPUs: 2, Locs: 3, MaxOps: 2}, EnumStats{Raw: 12246, AfterFilters: 6288, Canonical: 1142},
			"64ee0d83d4f8bd1bb1b41fa4dca2fed425874092ef298cf9c2462368a5279f24"},
		{Shape{CPUs: 3, Locs: 2, MaxOps: 2}, EnumStats{Raw: 64824, AfterFilters: 58960, Canonical: 29480},
			"82439f8fa1e563fddceaaa3c49188a65a1aa837d44540aed5fcc52afab3fa571"},
	}
	for _, c := range cases {
		progs, st := Enumerate(c.shape)
		if st != c.stats {
			t.Errorf("Enumerate(%+v) stats = %+v, want %+v", c.shape, st, c.stats)
		}
		h := sha256.New()
		for _, p := range progs {
			fmt.Fprintln(h, p.String())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("Enumerate(%+v) program-list digest = %s, want %s", c.shape, got, c.digest)
		}
	}
}

// Emitted programs own their Threads: filtering reuses one scratch program,
// so a program that aliased it would change under the caller.
func TestEnumerateProgramsDoNotAlias(t *testing.T) {
	progs, _ := Enumerate(Shape{CPUs: 2, Locs: 2, MaxOps: 2})
	seen := make(map[*Thread]bool, 2*len(progs))
	for _, p := range progs {
		if seen[&p.Threads[0]] {
			t.Fatalf("%s shares its Threads array with an earlier program", p)
		}
		seen[&p.Threads[0]] = true
	}
}

// Filtering a tuple and deciding its canonicity allocate nothing.
func TestCanonCheckAllocFree(t *testing.T) {
	ps := enumerate(Shape{CPUs: 3, Locs: 2, MaxOps: 2})
	tab := ps.tab
	masks, scratch := make([]locMasks, 3), make([]uint16, 3)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tuple := ps.tuple(i % ps.len())
		for k, ti := range tuple {
			masks[k] = tab.masks[ti]
		}
		sensitive(masks)
		tab.canonical(tuple, scratch)
		i++
	}); n != 0 {
		t.Fatalf("tuple filter and canonicity check allocate %.1f objects, want 0", n)
	}
}

// key is appendKey as a string.
func (p Program) key() string { return string(p.appendKey(nil)) }

// canonicalKey is the reference definition the enumerator's canonChecker
// implements: the minimal key over every thread permutation and location
// renaming, computed by building each relabelled program.
func (p Program) canonicalKey() string {
	min := ""
	for _, tp := range permutations(len(p.Threads)) {
		for _, lp := range permutations(p.NumLocs) {
			k := p.relabel(tp, lp).key()
			if min == "" || k < min {
				min = k
			}
		}
	}
	return min
}

// relabel returns the program with thread order threadPerm and locations
// renamed through locPerm.
func (p Program) relabel(threadPerm, locPerm []int) Program {
	q := Program{NumLocs: p.NumLocs, Threads: make([]Thread, len(p.Threads))}
	for i, src := range threadPerm {
		t := p.Threads[src]
		ops := make([]Op, len(t.Ops))
		for j, o := range t.Ops {
			ops[j] = Op{Kind: o.Kind, Loc: uint8(locPerm[o.Loc])}
		}
		q.Threads[i] = Thread{Ops: ops, CritLo: t.CritLo, CritHi: t.CritHi}
	}
	return q
}

func TestSchemeSensitiveFilters(t *testing.T) {
	cases := []struct {
		name string
		p    Program
		want bool
	}{
		{
			// No store at all: nothing communicates.
			"all loads",
			Program{NumLocs: 2, Threads: []Thread{
				{Ops: []Op{{Load, 0}}, CritLo: 0, CritHi: 1},
				{Ops: []Op{{Load, 1}}, CritLo: 0, CritHi: 1},
			}},
			false,
		},
		{
			// Disjoint locations: each thread owns its own word.
			"thread-private locations",
			Program{NumLocs: 2, Threads: []Thread{
				{Ops: []Op{{Store, 0}, {Load, 0}}, CritLo: 0, CritHi: 2},
				{Ops: []Op{{Store, 1}, {Load, 1}}, CritLo: 0, CritHi: 2},
			}},
			false,
		},
		{
			// Communication exists but no critical section anywhere.
			"no critical section",
			Program{NumLocs: 2, Threads: []Thread{
				{Ops: []Op{{Store, 0}}},
				{Ops: []Op{{Load, 0}}},
			}},
			false,
		},
		{
			// The only crit window covers a location nobody else touches.
			"private critical section",
			Program{NumLocs: 2, Threads: []Thread{
				{Ops: []Op{{Store, 0}, {Store, 1}}, CritLo: 1, CritHi: 2},
				{Ops: []Op{{Load, 0}}},
			}},
			false,
		},
		{
			// Classic message passing, receiver critted on the shared word.
			"effective crit with communication",
			Program{NumLocs: 2, Threads: []Thread{
				{Ops: []Op{{Store, 0}}},
				{Ops: []Op{{Load, 0}}, CritLo: 0, CritHi: 1},
			}},
			true,
		},
	}
	for _, c := range cases {
		if got := schemeSensitive(c.p); got != c.want {
			t.Errorf("%s (%s): schemeSensitive = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

func TestProgramString(t *testing.T) {
	p := Program{NumLocs: 2, Threads: []Thread{
		{Ops: []Op{{Load, 0}, {Store, 1}}, CritLo: 1, CritHi: 2},
		{Ops: []Op{{Store, 0}, {Load, 0}}},
	}}
	if got, want := p.String(), "P0: Lx [Sy] | P1: Sx Lx"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// enumerate's tuple list grows a chunk at a time: on 2x3x3 (180k programs,
// 0.72 MB of tuples) it allocates, beyond what the thread table takes, at
// most a quarter more than the tuples it keeps.
func TestEnumerateTupleGarbageBounded(t *testing.T) {
	s := Shape{CPUs: 2, Locs: 3, MaxOps: 3}
	var ms runtime.MemStats
	allocated := func(f func()) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	table := allocated(func() { newThreadTable(s) })
	var ps *programSet
	total := allocated(func() { ps = enumerate(s) })
	kept := uint64(ps.len() * s.CPUs * 2)
	t.Logf("%d programs: %d bytes of tuples kept, %d allocated beyond the table's %d", ps.len(), kept, total-table, table)
	if beyond := total - table; beyond > kept+kept/4 {
		t.Fatalf("enumerate allocates %d bytes beyond its thread table's %d to keep %d bytes of tuples, want <= %d",
			beyond, table, kept, kept+kept/4)
	}
}
