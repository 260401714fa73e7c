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
// writes the next operation into o, the CPU's op slot, or returns false
// when the thread is done.
type opSource interface {
	next(prev result, o *op) bool
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

// init readies s to drive th, recording load values into rec.
func (s *litmusSM) init(th LitmusThread, lock *Lock, rec []uint64) {
	*s = litmusSM{}
	s.th, s.lock, s.rec, s.recSlot = th, lock, rec, -1
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
}

// spinFree is SpinUntil's predicate for lock acquisition (static closure: no
// per-op allocation).
func spinFree(v uint64) bool { return v == 0 }

func (s *litmusSM) next(prev result, o *op) bool {
	s.consume(prev)
	return s.emit(o)
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

// emit writes the next operation for the current state into o (advancing
// through segment boundaries), or reports completion.
func (s *litmusSM) emit(o *op) bool {
	switch s.st {
	case smPre:
		if s.idx < s.th.CritLo {
			s.dataOp(o)
			return true
		}
		if s.th.CritLo == s.th.CritHi {
			s.enterPost()
			return s.emit(o)
		}
		s.st = smTxBegin
		*o = op{kind: opTxBegin, lock: s.lock}
	case smTxBegin:
		*o = op{kind: opTxBegin, lock: s.lock}
	case smBody:
		if s.idx < s.th.CritHi {
			s.dataOp(o)
			return true
		}
		s.st = smTxEnd
		*o = op{kind: opTxEnd, lock: s.lock}
	case smTTSLoad:
		*o = op{kind: opLoad, addr: s.lock.Addr}
	case smTTSSpin:
		*o = op{kind: opSpin, addr: s.lock.Addr, pred: spinFree}
	case smTTSLL:
		*o = op{kind: opLL, addr: s.lock.Addr}
	case smTTSSC:
		*o = op{kind: opSC, addr: s.lock.Addr, val: 1}
	case smCSEnter:
		*o = op{kind: opCSEnter, lock: s.lock}
	case smTTSBody:
		if s.idx < s.th.CritHi {
			s.dataOp(o)
			return true
		}
		s.st = smCSExit
		*o = op{kind: opCSExit, lock: s.lock}
	case smRelease:
		*o = op{kind: opStore, addr: s.lock.Addr}
	case smPost:
		if s.idx < len(s.th.Ops) {
			s.dataOp(o)
			return true
		}
		return false
	default:
		panic("proc: litmus state machine in impossible state")
	}
	return true
}

// dataOp writes the data operation at idx into o, reserving its rec slot
// when it is a load.
func (s *litmusSM) dataOp(o *op) {
	d := &s.th.Ops[s.idx]
	if d.IsLoad {
		s.recSlot = s.loadIdx
		s.loadIdx++
		*o = op{kind: opLoad, addr: d.Addr}
		return
	}
	*o = op{kind: opStore, addr: d.Addr, val: d.Val}
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
