package proc

import (
	"fmt"
	"slices"

	"tlrsim/internal/memsys"
)

// Litmus harness: run a straight-line program shape (one short thread per
// CPU, loads and stores with an optional critical-section window) and
// collect the outcome — the value every load observed in the committed
// execution, in program order. internal/litmus drives this API to compare
// the outcome sets of lock-based and lock-elided executions of the same
// program (the memalloy lock-elision mapping: the transformed execution must
// admit no new behaviours).

// LitmusOp is one straight-line litmus operation.
type LitmusOp struct {
	// IsLoad selects a load; otherwise the op stores Val.
	IsLoad bool
	Addr   memsys.Addr
	Val    uint64
}

// LitmusThread is one thread of a litmus program: a fixed op sequence with
// at most one critical section wrapping the contiguous window
// [CritLo, CritHi). CritLo == CritHi means no critical section.
type LitmusThread struct {
	Ops            []LitmusOp
	CritLo, CritHi int
}

// RunLitmus executes one litmus thread per CPU (threads[i] on CPU i, all
// critical sections protected by lock) and returns, per thread, the values
// its loads observed, indexed by load order within the thread. Under elision
// a critical section body may execute several times; the recorded values are
// those of the committed execution, because every restart rewrites the same
// slots and the committed run writes last.
//
// The returned slices are machine scratch, reused by the next RunLitmus on
// this machine (Reset keeps them): a sweep running millions of programs on
// one pooled machine allocates no per-run load records or thread state.
//
// The functional checker's verdict (when attached) is joined into the
// returned error even on a clean run: a litmus harness exists to surface
// divergences, so a checker violation must fail the run, not hide behind a
// separate accessor the caller may forget.
func (m *Machine) RunLitmus(lock *Lock, threads []LitmusThread) ([][]uint64, error) {
	if len(threads) != len(m.CPUs) {
		return nil, fmt.Errorf("proc: %d litmus threads for %d CPUs", len(threads), len(m.CPUs))
	}
	total := 0
	for i, th := range threads {
		if th.CritLo < 0 || th.CritHi < th.CritLo || th.CritHi > len(th.Ops) {
			return nil, fmt.Errorf("proc: thread %d: bad critical window [%d,%d) over %d ops",
				i, th.CritLo, th.CritHi, len(th.Ops))
		}
		for _, o := range th.Ops {
			if o.IsLoad {
				total++
			}
		}
	}
	ls := &m.litmus
	ls.vals = slices.Grow(ls.vals[:0], total)[:total]
	clear(ls.vals)
	ls.loads = slices.Grow(ls.loads[:0], len(threads))[:len(threads)]
	ls.srcs = slices.Grow(ls.srcs[:0], len(threads))[:len(threads)]
	ls.sms = slices.Grow(ls.sms[:0], len(threads))[:len(threads)]
	base := 0
	for i, th := range threads {
		n := 0
		for _, o := range th.Ops {
			if o.IsLoad {
				n++
			}
		}
		ls.loads[i] = ls.vals[base : base+n : base+n]
		base += n
		if m.cfg.Scheme == MCS {
			// MCS acquisition has per-CPU queue-node state the scripted
			// state machine does not model; run it as a coroutine thread.
			ls.srcs[i] = newTC(m.CPUs[i], litmusProg(th, lock, ls.loads[i]))
		} else {
			ls.sms[i].init(th, lock, ls.loads[i])
			ls.srcs[i] = &ls.sms[i]
		}
	}
	if err := m.runLoop(ls.srcs); err != nil {
		return ls.loads, err
	}
	return ls.loads, m.CheckerErr()
}

// litmusScratch is the storage RunLitmus and LitmusOutcome reuse across
// runs on one machine. Each slice is resized with slices.Grow(s[:0], n)[:n],
// which keeps its backing array when the capacity suffices.
type litmusScratch struct {
	vals   []uint64   // load values of every thread, back to back
	loads  [][]uint64 // per-thread views into vals
	srcs   []opSource
	sms    []litmusSM
	words  []uint64 // final memory words (LitmusOutcome)
	outBuf []byte   // outcome encoding (LitmusOutcome)
}

// litmusProg compiles one litmus thread into a thread function. rec receives
// load values by load index; restarted critical bodies overwrite their own
// slots, so committed values win.
func litmusProg(th LitmusThread, lock *Lock, rec []uint64) func(*TC) {
	return func(tc *TC) {
		run := func(lo, hi, loadIdx int) {
			for _, o := range th.Ops[lo:hi] {
				if o.IsLoad {
					rec[loadIdx] = tc.Load(o.Addr)
					loadIdx++
				} else {
					tc.Store(o.Addr, o.Val)
				}
			}
		}
		loadsBefore := func(n int) int {
			c := 0
			for _, o := range th.Ops[:n] {
				if o.IsLoad {
					c++
				}
			}
			return c
		}
		if th.CritLo == th.CritHi {
			run(0, len(th.Ops), 0)
			return
		}
		run(0, th.CritLo, 0)
		tc.Critical(lock, func() {
			run(th.CritLo, th.CritHi, loadsBefore(th.CritLo))
		})
		run(th.CritHi, len(th.Ops), loadsBefore(th.CritHi))
	}
}

// LitmusOutcome renders a collected litmus result canonically: the loads
// each thread observed plus the final architectural value of each listed
// location. Two runs are behaviourally identical iff their outcome strings
// are equal. Only the returned string allocates.
func (m *Machine) LitmusOutcome(loads [][]uint64, locs []memsys.Addr) string {
	ls := &m.litmus
	ls.words = slices.Grow(ls.words[:0], len(locs))[:len(locs)]
	for i, a := range locs {
		ls.words[i] = m.Sys.ArchWord(a)
	}
	ls.outBuf = AppendOutcome(ls.outBuf[:0], loads, ls.words)
	return string(ls.outBuf)
}

// FormatOutcome is the canonical outcome encoding shared by the machine
// harness and internal/litmus's analytic reference model: per-thread load
// values in program order, then final memory values per location.
func FormatOutcome(loads [][]uint64, mem []uint64) string {
	return string(AppendOutcome(make([]byte, 0, 64), loads, mem))
}

// AppendOutcome appends the canonical outcome encoding to b (the
// allocation-free form of FormatOutcome, for callers that format outcomes in
// bulk against a reused arena).
func AppendOutcome(b []byte, loads [][]uint64, mem []uint64) []byte {
	for i, ls := range loads {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, 'P')
		b = appendInt(b, uint64(i))
		b = append(b, '=')
		b = appendVals(b, ls)
	}
	b = append(b, " m="...)
	b = appendVals(b, mem)
	return b
}

func appendVals(b []byte, vs []uint64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendInt(b, v)
	}
	return append(b, ']')
}

func appendInt(b []byte, v uint64) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}
