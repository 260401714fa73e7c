package proc

// Scripted thread execution: a litmus thread's operation stream is a pure
// function of the results it observes, so it can be driven by an explicit
// state machine instead of a coroutine thread. The CPU pulls the next
// operation with a plain method call — no coroutine switch — which matters
// when a sweep runs millions of micro-programs. The state machine reproduces
// the exact op sequence of litmusProg + TC.Critical +
// locks.AcquireTTS/ReleaseTTS: same ops, same fields, same retry/restart
// decisions, so simulated behaviour is identical to the coroutine path op
// for op.

// opSource feeds a CPU its operation stream: a coroutine thread (*TC) or a
// scripted state machine (*litmusSM). next receives the result of the
// previously issued operation (the zero result on the first call) and
// returns the next operation, or ok=false when the thread is done.
type opSource interface {
	next(prev result) (op, bool)
}

// litmusSM states. Each names the operation whose result the next call to
// next() will be handling.
const (
	smStart   = iota // nothing issued yet
	smPre            // data op idx (before the critical window)
	smTxBegin        // TxBegin
	smBody           // data op idx inside an elided critical window
	smTxEnd          // TxEnd
	smTTSLoad        // AcquireTTS: initial cached load of the lock word
	smTTSSpin        // AcquireTTS: SpinUntil(lock == 0)
	smTTSLL          // AcquireTTS: LL
	smTTSSC          // AcquireTTS: SC
	smCSEnter        // CSEnter after a real acquisition
	smTTSBody        // data op idx inside an acquired critical window
	smCSExit         // CSExit
	smRelease        // ReleaseTTS store
	smPost           // data op idx after the critical window
)

// litmusSM drives one litmus thread (a LitmusThread) as a scripted op
// stream. Restarted elided bodies rewrite their own load slots, so committed
// values win — the same property the coroutine harness relies on.
type litmusSM struct {
	th   LitmusThread
	lock *Lock
	rec  []uint64 // load values by load order within the thread

	st      int
	idx     int // next data-op index within the current segment
	loadIdx int // next rec slot for a data load
	recSlot int // rec slot awaiting the in-flight load's value (-1: none)

	preLoads  int // loads in [0, CritLo)
	bodyLoads int // loads in [CritLo, CritHi)
}

func newLitmusSM(th LitmusThread, lock *Lock, rec []uint64) *litmusSM {
	s := &litmusSM{th: th, lock: lock, rec: rec, recSlot: -1}
	for _, o := range th.Ops[:th.CritLo] {
		if o.IsLoad {
			s.preLoads++
		}
	}
	for _, o := range th.Ops[th.CritLo:th.CritHi] {
		if o.IsLoad {
			s.bodyLoads++
		}
	}
	return s
}

// spinFree is SpinUntil's predicate for lock acquisition (static closure: no
// per-op allocation).
func spinFree(v uint64) bool { return v == 0 }

func (s *litmusSM) next(prev result) (op, bool) {
	s.consume(prev)
	return s.emit()
}

// consume applies the previous operation's result: record load values,
// follow the lock algorithm's control flow, restart squashed elided bodies.
func (s *litmusSM) consume(prev result) {
	switch s.st {
	case smStart:
		s.st, s.idx, s.loadIdx = smPre, 0, 0
	case smPre, smTTSBody, smPost:
		if prev.aborted {
			// mem() would panic(abortSignal) with no speculative frame to
			// recover it: an abort outside speculation is a machine bug.
			panic("proc: litmus op aborted outside speculation")
		}
		s.record(prev)
		s.idx++
	case smBody:
		if prev.aborted {
			// The transaction was squashed: unwind to the restart point
			// (the outermost TxBegin) exactly as the abortSignal panic does.
			s.restartCrit()
			return
		}
		s.record(prev)
		s.idx++
	case smTxBegin:
		if prev.aborted {
			return // this elision attempt died before it began; retry
		}
		switch prev.mode {
		case CritElided:
			s.st, s.idx, s.loadIdx = smBody, s.th.CritLo, s.preLoads
		case CritAcquireTTS:
			s.st = smTTSLoad
		default:
			panic("proc: scripted litmus threads do not support MCS")
		}
	case smTxEnd:
		if prev.aborted || !prev.ok {
			s.restartCrit()
			return
		}
		s.enterPost()
	case smTTSLoad:
		s.noAbort(prev)
		if prev.val != 0 {
			s.st = smTTSSpin
		} else {
			s.st = smTTSLL
		}
	case smTTSSpin:
		s.noAbort(prev)
		s.st = smTTSLL
	case smTTSLL:
		s.noAbort(prev)
		if prev.val != 0 {
			s.st = smTTSLoad // lock grabbed under us: back to the spin
		} else {
			s.st = smTTSSC
		}
	case smTTSSC:
		s.noAbort(prev)
		if prev.val == 1 {
			s.st = smCSEnter
		} else {
			s.st = smTTSLoad // SC lost the race: back to the spin
		}
	case smCSEnter:
		s.noAbort(prev)
		s.st, s.idx, s.loadIdx = smTTSBody, s.th.CritLo, s.preLoads
	case smCSExit:
		s.noAbort(prev)
		s.st = smRelease
	case smRelease:
		s.noAbort(prev)
		s.enterPost()
	}
}

// emit issues the next operation for the current state (advancing through
// segment boundaries), or reports completion.
func (s *litmusSM) emit() (op, bool) {
	switch s.st {
	case smPre:
		if s.idx < s.th.CritLo {
			return s.dataOp(), true
		}
		if s.th.CritLo == s.th.CritHi {
			s.enterPost()
			return s.emit()
		}
		s.st = smTxBegin
		return op{kind: opTxBegin, lock: s.lock}, true
	case smTxBegin:
		return op{kind: opTxBegin, lock: s.lock}, true
	case smBody:
		if s.idx < s.th.CritHi {
			return s.dataOp(), true
		}
		s.st = smTxEnd
		return op{kind: opTxEnd, lock: s.lock}, true
	case smTTSLoad:
		return op{kind: opLoad, addr: s.lock.Addr}, true
	case smTTSSpin:
		return op{kind: opSpin, addr: s.lock.Addr, pred: spinFree}, true
	case smTTSLL:
		return op{kind: opLL, addr: s.lock.Addr}, true
	case smTTSSC:
		return op{kind: opSC, addr: s.lock.Addr, val: 1}, true
	case smCSEnter:
		return op{kind: opCSEnter, lock: s.lock}, true
	case smTTSBody:
		if s.idx < s.th.CritHi {
			return s.dataOp(), true
		}
		s.st = smCSExit
		return op{kind: opCSExit, lock: s.lock}, true
	case smRelease:
		return op{kind: opStore, addr: s.lock.Addr}, true
	case smPost:
		if s.idx < len(s.th.Ops) {
			return s.dataOp(), true
		}
		return op{}, false
	}
	panic("proc: litmus state machine in impossible state")
}

// dataOp builds the data operation at idx, reserving its rec slot when it is
// a load.
func (s *litmusSM) dataOp() op {
	o := s.th.Ops[s.idx]
	if o.IsLoad {
		s.recSlot = s.loadIdx
		s.loadIdx++
		return op{kind: opLoad, addr: o.Addr}
	}
	return op{kind: opStore, addr: o.Addr, val: o.Val}
}

func (s *litmusSM) record(prev result) {
	if s.recSlot >= 0 {
		s.rec[s.recSlot] = prev.val
		s.recSlot = -1
	}
}

func (s *litmusSM) restartCrit() {
	s.st = smTxBegin
	s.recSlot = -1
}

func (s *litmusSM) enterPost() {
	s.st, s.idx, s.loadIdx = smPost, s.th.CritHi, s.preLoads+s.bodyLoads
}

func (s *litmusSM) noAbort(prev result) {
	if prev.aborted {
		panic("proc: litmus op aborted outside speculation")
	}
}
