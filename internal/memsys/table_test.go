package memsys

import (
	"math/rand"
	"testing"
)

// tableAddrs is the address pool the line-table tests draw from: line 0,
// both sides of Memory and LineSet page boundaries, a dense run and a
// sparse high line.
func tableAddrs() []Addr {
	var lines []uint64
	for _, n := range []uint64{0, memPageLines - 1, memPageLines, 2*memPageLines - 1,
		setPageLines - 1, setPageLines, 2*setPageLines - 1, 2 * setPageLines, 1 << 20} {
		lines = append(lines, n)
	}
	for n := uint64(1000); n < 1032; n++ {
		lines = append(lines, n)
	}
	addrs := make([]Addr, 0, len(lines)*2)
	for _, n := range lines {
		base := Addr(n * LineBytes)
		addrs = append(addrs, base, base+(WordsPerLine-1)*WordBytes)
	}
	return addrs
}

// Memory and LineSet agree with map oracles under random word and line
// writes, reads and resets over line 0, page boundaries, a dense run and a
// sparse high line.
func TestPropertyLineTablesMatchMap(t *testing.T) {
	addrs := tableAddrs()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, s := NewMemory(), new(LineSet)
		words, lines := map[Addr]uint64{}, map[Addr]bool{}
		for i := 0; i < 2000; i++ {
			a := addrs[rng.Intn(len(addrs))]
			switch rng.Intn(8) {
			case 0:
				v := rng.Uint64()
				m.WriteWord(a, v)
				words[a] = v
			case 1:
				var d LineData
				for w := range d {
					d[w] = rng.Uint64()
					words[a.Line()+Addr(w*WordBytes)] = d[w]
				}
				m.WriteLine(a, d)
			case 2:
				if got := m.ReadWord(a); got != words[a] {
					t.Fatalf("seed %d op %d: ReadWord(%s) = %d, want %d", seed, i, a, got, words[a])
				}
			case 3:
				got := m.ReadLine(a)
				for w := range got {
					if want := words[a.Line()+Addr(w*WordBytes)]; got[w] != want {
						t.Fatalf("seed %d op %d: ReadLine(%s)[%d] = %d, want %d", seed, i, a, w, got[w], want)
					}
				}
			case 4:
				s.Add(a)
				lines[a.Line()] = true
			case 5:
				if got := s.Has(a); got != lines[a.Line()] {
					t.Fatalf("seed %d op %d: Has(%s) = %v, want %v", seed, i, a, got, lines[a.Line()])
				}
			case 6:
				if rng.Intn(20) == 0 {
					m.Reset()
					s.Reset()
					clear(words)
					clear(lines)
				}
			case 7:
				// An address far from the pool reads as absent.
				far := Addr(1<<40) + a
				if m.ReadWord(far) != 0 || m.ReadLine(far) != (LineData{}) || s.Has(far) {
					t.Fatalf("seed %d op %d: unwritten %s reads as present", seed, i, far)
				}
			}
		}
		for _, a := range addrs {
			if m.ReadWord(a) != words[a] || s.Has(a) != lines[a.Line()] {
				t.Fatalf("seed %d: final state of %s differs from the oracle", seed, a)
			}
		}
	}
}

// Reading an absent page allocates nothing, not even a directory; after one
// warm pass, Reset plus the same traffic allocates nothing either.
func TestLineTablesReuseAllocFree(t *testing.T) {
	addrs := tableAddrs()
	m, s := NewMemory(), new(LineSet)
	if n := testing.AllocsPerRun(20, func() {
		for _, a := range addrs {
			m.ReadWord(a)
			m.ReadLine(a)
			s.Has(a)
		}
	}); n != 0 || len(m.pages.dir) != 0 || len(s.pages.dir) != 0 {
		t.Fatalf("reads of absent pages allocate %.1f objects and grow the directories to %d and %d pointers, want 0",
			n, len(m.pages.dir), len(s.pages.dir))
	}
	traffic := func() {
		for i, a := range addrs {
			m.WriteWord(a, uint64(i))
			m.WriteLine(a+LineBytes*memPageLines, LineData{uint64(i)})
			s.Add(a)
		}
	}
	traffic()
	if n := testing.AllocsPerRun(20, func() { m.Reset(); s.Reset(); traffic() }); n != 0 {
		t.Fatalf("Reset + the same traffic allocates %.1f objects, want 0", n)
	}
	m.Reset()
	s.Reset()
	for _, a := range addrs {
		if m.ReadWord(a) != 0 || s.Has(a) {
			t.Fatalf("%s survives Reset", a)
		}
	}
}
