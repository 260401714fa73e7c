package coherence

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tlrsim/internal/cache"
	"tlrsim/internal/checker"
	"tlrsim/internal/core"
	"tlrsim/internal/locks"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
)

// CheckCoherence reports the same violating line on every call, the lowest
// one: with three lines each held Exclusive by one CPU and Shared by the
// other, all three violate, and the report must name 0x1000 every time.
func TestCheckCoherenceReportsLowestLine(t *testing.T) {
	_, s := rig(2, core.Policy{EnableTLR: true})
	for i, line := range []memsys.Addr{0x3000, 0x1000, 0x2000} {
		excl, shared := s.Ctrls[i%2], s.Ctrls[1-i%2]
		for _, h := range []struct {
			c  *Controller
			st cache.State
		}{{excl, cache.Exclusive}, {shared, cache.Shared}} {
			if _, _, ok := h.c.cache.Insert(line, h.st, memsys.LineData{}); !ok {
				t.Fatalf("P%d: insert of %s failed", h.c.id, line)
			}
			s.holders.add(s.holders.at(line), h.c.id, h.st.IsOwner())
		}
	}
	msgs := map[string]bool{}
	for i := 0; i < 100; i++ {
		err := s.CheckCoherence()
		if err == nil {
			t.Fatal("E alongside S passed the coherence check")
		}
		msgs[err.Error()] = true
	}
	if len(msgs) != 1 {
		t.Fatalf("100 calls gave %d different reports: %v", len(msgs), msgs)
	}
	for m := range msgs {
		if !strings.HasPrefix(m, "line 0x1000 writable alongside other copies") {
			t.Fatalf("report %q does not name the lowest violating line 0x1000", m)
		}
	}
}

// A warm transaction cycle allocates nothing: a commit that validates its
// read set and drains two lines of write buffer (checker attached), then an
// attempt that aborts with both sets non-empty, reuse the sets' arrays.
func TestCommitAbortCycleAllocFree(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	s.AttachChecker(checker.New())
	p0 := s.Ctrls[0]
	aborted := 0
	sink, n := rec.sink, rec.next()
	p0.OnAbort = func(core.Reason) { aborted++ }
	v := uint64(0)
	attempt := func() {
		begin(p0)
		p0.Load(0x3000, false, sink, n)
		p0.Load(0x3008, false, sink, n)
		v++
		p0.Store(lineB, v, sink, n)
		p0.Store(lineA, v, sink, n)
		p0.Store(lineA+8, v, sink, n)
		k.Run()
	}
	cycle := func() {
		attempt()
		p0.TryCommit(sink, n)
		k.Run()
		attempt()
		p0.AbortTxn(core.ReasonExplicit)
		p0.Engine().AckAbort()
		k.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm commit/abort cycle allocates %.1f objects, want 0", allocs)
	}
	if aborted != 101+1 || p0.Engine().Stats().Commits != 101+1 {
		t.Fatalf("%d commits and %d aborts, want %d each", p0.Engine().Stats().Commits, aborted, 102)
	}
	if err := s.Check.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.ArchWord(lineA + 8); got != v-1 {
		t.Fatalf("A+8 = %d, want the last committed value %d", got, v-1)
	}
	if p0.specReads.Len() != 0 || p0.wb.LineCount() != 0 {
		t.Fatal("read set or write buffer not emptied")
	}
}

// Spin subscriptions are allocation-free once warm, fire once per notify
// in subscription order, and leave no entry behind for a line once its
// list has run: the live entries are the lines currently spun on.
func TestLineSubsAllocFree(t *testing.T) {
	_, s := rig(1, core.Policy{})
	c := s.Ctrls[0]
	var fired []uint64
	cb := sim.Callback(func(_, _ any, n uint64) { fired = append(fired, n) })
	lines := []memsys.Addr{0x1000, 0x2040, 0x3000}
	round := func() {
		fired = fired[:0]
		for i, line := range lines {
			c.SubscribeLine(line, cb, nil, uint64(2*i))
			c.SubscribeLine(line+8, cb, nil, uint64(2*i+1)) // same line
		}
		c.notifyLine(0x4000) // no subscriber
		c.notifyLine(lines[1])
		if len(c.lineSubs) != 2 {
			panic("a notified line kept its entry")
		}
		c.notifyLine(lines[0])
		c.notifyLine(lines[2])
		if len(c.lineSubs) != 0 {
			panic("entries left after every line was notified")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("warm subscribe/notify round allocates %.1f objects, want 0", allocs)
	}
	if got := fmt.Sprint(fired); got != "[2 3 0 1 4 5]" {
		t.Fatalf("fired %s, want [2 3 0 1 4 5]", got)
	}
}

// The holder set's line index agrees with a map across table growth and
// reset: every stored line reads back its value, and no other line is
// found.
func TestLineIndexMatchesMap(t *testing.T) {
	var x lineIndex
	rng := rand.New(rand.NewSource(7))
	for run, n := range []int{10, 3000, 40, 700} {
		want := map[memsys.Addr]int{}
		for len(want) < n {
			line := memsys.Addr(rng.Intn(1<<16)) * memsys.LineBytes
			if _, ok := want[line]; ok {
				if v, ok := x.get(line); !ok || v != want[line] {
					t.Fatalf("run %d: get(%s) = %d, %v; want %d", run, line, v, ok, want[line])
				}
				continue
			}
			if _, ok := x.get(line); ok {
				t.Fatalf("run %d: absent line %s found", run, line)
			}
			want[line] = len(want) * 3
			x.put(line, want[line])
		}
		for line, v := range want {
			if got, ok := x.get(line); !ok || got != v {
				t.Fatalf("run %d: get(%s) = %d, %v; want %d", run, line, got, ok, v)
			}
		}
		if 2*x.n > len(x.slots) || x.n != n {
			t.Fatalf("run %d: %d lines in %d slots, want %d at most half full", run, x.n, len(x.slots), n)
		}
		x.reset()
		for line := range want {
			if _, ok := x.get(line); ok {
				t.Fatalf("run %d: %s survived reset", run, line)
			}
		}
	}
}

// The lock-line set is one bit per line: registering the words of 2,048 MCS
// locks on a 16-CPU machine (a padded test&test&set word, a tail and 16
// two-word queue nodes per lock: 69,632 lines, mp3d's cells under MCS)
// allocates under 64 KB inside RegisterLock.
func TestRegisterLockDense(t *testing.T) {
	_, s := rig(16, core.Policy{})
	al := memsys.NewAllocator(0x10000)
	var words []memsys.Addr
	for i := 0; i < 2048; i++ {
		words = append(words, al.PaddedWord())
		words = append(words, locks.NewMCS(al, 16).Words()...)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for _, w := range words {
		s.RegisterLock(w)
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	t.Logf("%d lock lines: %d bytes allocated", len(words), got)
	if got >= 64<<10 {
		t.Fatalf("registering %d lock lines allocates %d bytes, want < %d", len(words), got, 64<<10)
	}
	for _, w := range words {
		if !s.IsLockLine(w + memsys.WordBytes) {
			t.Fatalf("%s is not a lock line after RegisterLock", w)
		}
	}
	if s.IsLockLine(al.Next() + memsys.LineBytes) {
		t.Fatal("a line past every lock is a lock line")
	}
}
