package proc

import (
	"strings"
	"testing"

	"tlrsim/internal/core"
)

// opScript feeds a CPU a fixed op list and records every result. before,
// when set, runs as op i is handed out.
type opScript struct {
	ops    []op
	i      int
	res    []result
	before func(i int)
}

func (s *opScript) next(r result, o *op) bool {
	if s.i > 0 {
		s.res = append(s.res, r)
	}
	if s.i == len(s.ops) {
		return false
	}
	if s.before != nil {
		s.before(s.i)
	}
	s.i++
	*o = s.ops[s.i-1]
	return true
}

// A load miss whose transaction is squashed before the fill lands must not
// complete the CPU's next operation: the fill's completion carries the
// squashed load's seq, and the CPU drops it. Here the restarted
// transaction's first load (of y) is in flight when the stale fill of x
// lands, and must still return y's value.
func TestSquashedLoadMissDoesNotCompleteNextOp(t *testing.T) {
	m := NewMachine(BaselineConfig(1, TLR, 1))
	lock := m.NewLock()
	x, y := m.Alloc.PaddedWord(), m.Alloc.PaddedWord()
	m.Mem().WriteWord(x, 111)
	m.Mem().WriteWord(y, 222)
	cpu := m.CPUs[0]
	s := &opScript{ops: []op{
		{kind: opTxBegin, lock: lock},
		{kind: opLoad, addr: x},
		{kind: opTxBegin, lock: lock}, // the restart
		{kind: opLoad, addr: y},
		{kind: opTxEnd, lock: lock},
	}}
	s.before = func(i int) {
		switch i {
		case 1:
			// Squash the transaction while the load of x is in flight.
			m.K.At(m.K.Now()+5, func() { cpu.ctrl.AbortTxn(core.ReasonExplicit) })
		case 3:
			if !strings.Contains(cpu.ctrl.DebugString(), "mshr "+x.Line().String()) {
				t.Fatal("the squashed load's miss landed before the next load issued; the test no longer races them")
			}
		}
	}
	if err := m.runLoop([]opSource{s}); err != nil {
		t.Fatal(err)
	}
	if len(s.res) != 5 {
		t.Fatalf("%d results, want 5: %+v", len(s.res), s.res)
	}
	if !s.res[1].aborted {
		t.Fatalf("load of x: %+v, want squashed", s.res[1])
	}
	if r := s.res[3]; r.aborted || r.val != 222 {
		t.Fatalf("load of y: %+v, want 222 (the stale fill of x completed it?)", r)
	}
	if r := s.res[4]; !r.ok {
		t.Fatalf("TxEnd: %+v, want committed", r)
	}
}

// A lock-word check from a dead transaction must not abort the next one:
// the check is tagged with the TxSeq of the transaction that issued it.
func TestStaleLockWordCheckDoesNotAbortNextTxn(t *testing.T) {
	m := NewMachine(BaselineConfig(1, TLR, 1))
	cpu := m.CPUs[0]
	cpu.eng.EnterCritical(true)
	dead := cpu.eng.TxSeq()
	cpu.ctrl.AbortTxn(core.ReasonConflict)
	cpu.eng.AckAbort()
	cpu.eng.EnterCritical(true)
	cpu.lockCheck(dead, 1, true) // the dead transaction saw the lock held
	if cpu.eng.Aborted() || cpu.waitFree {
		t.Fatal("a dead transaction's lock-word check aborted its successor")
	}
	cpu.lockCheck(cpu.eng.TxSeq(), 1, true)
	if !cpu.eng.Aborted() || !cpu.waitFree {
		t.Fatal("the live transaction's lock-word check saw the lock held but did not abort it")
	}
}
