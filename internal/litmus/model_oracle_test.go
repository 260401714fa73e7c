package litmus

import (
	"sort"

	"tlrsim/internal/proc"
)

// The string-keyed reference model the explorer in model.go replaced, kept
// as a test oracle: the same depth-first search, but the visited set is
// keyed by a byte rendering of the whole state (every buffered entry, every
// load value) rather than the explorer's fixed-size stateKey. Its outcome
// sets are the ones the explorer must reproduce exactly.

type oMop struct {
	kind mopKind
	loc  int8 // data location, or oLockLoc
	val  uint64
}

// oLockLoc is the lock word's location index inside the model.
const oLockLoc int8 = -1

// oSbEntry is one store-buffer entry.
type oSbEntry struct {
	loc int8
	val uint64
}

// oMaxThreadOps bounds one thread's op count inside the model's fixed-size
// state (sweep shapes use at most 3; headroom is free). outcomesOf checks
// the bound.
const oMaxThreadOps = 8

// oTbufCap bounds one thread's store buffer: at most oMaxThreadOps data stores
// plus the lock release can be buffered at once (an acquire requires the
// buffer empty first).
const oTbufCap = oMaxThreadOps + 1

// oTbuf is one thread's FIFO store buffer as a fixed ring-free window:
// ents[head:tail]. Draining advances head; undo rewinds it — entries are
// never overwritten until the enclosing push is itself undone.
type oTbuf struct {
	ents       [oTbufCap]oSbEntry
	head, tail int8
}

func (b *oTbuf) len() int { return int(b.tail - b.head) }

// oThreadState is one thread's part of the search state.
type oThreadState struct {
	pc    int
	buf   oTbuf
	loads [oMaxThreadOps]uint64
	nload int
}

// oracleExplorer is the DFS over interleavings. It is reusable across programs
// (visited/outcomes buckets and the key arena survive) — one per sweep
// worker.
type oracleExplorer struct {
	mops     [][]oMop
	threads  []oThreadState
	mem      []uint64
	lock     uint64
	visited  map[string]struct{}
	outcomes map[string]struct{}
	key      []byte

	// scratch views for outcome formatting
	loadViews [][]uint64
	out       []string
}

func newOracleExplorer() *oracleExplorer {
	return &oracleExplorer{
		visited:  make(map[string]struct{}),
		outcomes: make(map[string]struct{}),
	}
}

// outcomesOf computes the reference outcome set on reused storage. The
// returned slice is valid until the next call.
func (e *oracleExplorer) outcomesOf(p Program) []string {
	if cap(e.mops) < len(p.Threads) {
		e.mops = make([][]oMop, len(p.Threads))
		e.threads = make([]oThreadState, len(p.Threads))
		e.loadViews = make([][]uint64, len(p.Threads))
	}
	e.mops = e.mops[:len(p.Threads)]
	e.threads = e.threads[:len(p.Threads)]
	e.loadViews = e.loadViews[:len(p.Threads)]
	for ti, t := range p.Threads {
		if len(t.Ops) > oMaxThreadOps {
			panic("litmus: thread exceeds the model's op bound")
		}
		e.mops[ti] = oExpandThread(ti, t, e.mops[ti][:0])
		e.threads[ti] = oThreadState{}
	}
	if cap(e.mem) < p.NumLocs {
		e.mem = make([]uint64, p.NumLocs)
	}
	e.mem = e.mem[:p.NumLocs]
	for i := range e.mem {
		e.mem[i] = 0
	}
	e.lock = 0
	clear(e.visited)
	clear(e.outcomes)

	e.explore()

	e.out = e.out[:0]
	for o := range e.outcomes {
		e.out = append(e.out, o)
	}
	sort.Strings(e.out)
	return e.out
}

// oExpandThread compiles a thread into micro-ops: its data ops plus the lock
// acquire/release brackets around the critical window.
func oExpandThread(tid int, t Thread, out []oMop) []oMop {
	for i, o := range t.Ops {
		if t.HasCrit() && i == int(t.CritLo) {
			out = append(out, oMop{kind: mAcquire})
		}
		if o.Kind == Load {
			out = append(out, oMop{kind: mLoad, loc: int8(o.Loc)})
		} else {
			out = append(out, oMop{kind: mStore, loc: int8(o.Loc), val: StoreVal(tid, i)})
		}
		if t.HasCrit() && i == int(t.CritHi)-1 {
			out = append(out, oMop{kind: mRelease})
		}
	}
	return out
}

// explore walks every enabled step from the current state, mutating in place
// and undoing each step after its subtree. Steps per thread: execute its
// next micro-op (if enabled), or drain the oldest entry of its store buffer.
func (e *oracleExplorer) explore() {
	e.key = e.appendKey(e.key[:0])
	if _, seen := e.visited[string(e.key)]; seen {
		return
	}
	e.visited[string(e.key)] = struct{}{}

	terminal := true
	for ti := range e.mops {
		ts := &e.threads[ti]
		// Drain step.
		if ts.buf.len() > 0 {
			terminal = false
			ent := ts.buf.ents[ts.buf.head]
			ts.buf.head++
			if ent.loc == oLockLoc {
				saved := e.lock
				e.lock = ent.val
				e.explore()
				e.lock = saved
			} else {
				saved := e.mem[ent.loc]
				e.mem[ent.loc] = ent.val
				e.explore()
				e.mem[ent.loc] = saved
			}
			ts.buf.head--
		}
		// Execute step.
		if ts.pc >= len(e.mops[ti]) {
			continue
		}
		terminal = false
		m := e.mops[ti][ts.pc]
		switch m.kind {
		case mLoad:
			v, fwd := oForward(&ts.buf, m.loc)
			if !fwd {
				v = e.mem[m.loc]
			}
			ts.pc++
			ts.loads[ts.nload] = v
			ts.nload++
			e.explore()
			ts.nload--
			ts.pc--
		case mStore:
			ts.pc++
			ts.buf.ents[ts.buf.tail] = oSbEntry{m.loc, m.val}
			ts.buf.tail++
			e.explore()
			ts.buf.tail--
			ts.pc--
		case mAcquire:
			// Atomics fence: the buffer must have drained (drain steps get
			// the search there), and the lock word must be free in memory.
			if ts.buf.len() == 0 && e.lock == 0 {
				ts.pc++
				e.lock = 1
				e.explore()
				e.lock = 0
				ts.pc--
			}
		case mRelease:
			ts.pc++
			ts.buf.ents[ts.buf.tail] = oSbEntry{oLockLoc, 0}
			ts.buf.tail++
			e.explore()
			ts.buf.tail--
			ts.pc--
		}
	}
	if terminal {
		for ti := range e.threads {
			ts := &e.threads[ti]
			e.loadViews[ti] = ts.loads[:ts.nload]
		}
		e.key = proc.AppendOutcome(e.key[:0], e.loadViews, e.mem)
		if _, ok := e.outcomes[string(e.key)]; !ok {
			e.outcomes[string(e.key)] = struct{}{}
		}
	}
}

// oForward returns the newest buffered value for loc, if any (TSO
// store->load forwarding).
func oForward(buf *oTbuf, loc int8) (uint64, bool) {
	for i := buf.tail - 1; i >= buf.head; i-- {
		if buf.ents[i].loc == loc {
			return buf.ents[i].val, true
		}
	}
	return 0, false
}

// appendKey renders the state as a visited-set key into b.
func (e *oracleExplorer) appendKey(b []byte) []byte {
	for ti := range e.threads {
		ts := &e.threads[ti]
		b = append(b, byte(ts.pc), '|')
		for i := ts.buf.head; i < ts.buf.tail; i++ {
			b = append(b, byte(ts.buf.ents[i].loc+1), byte(ts.buf.ents[i].val))
		}
		b = append(b, '|')
		for _, v := range ts.loads[:ts.nload] {
			b = append(b, byte(v))
		}
		b = append(b, '#')
	}
	for _, v := range e.mem {
		b = append(b, byte(v))
	}
	b = append(b, byte(e.lock))
	return b
}
