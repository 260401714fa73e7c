package litmus

import (
	"slices"

	"tlrsim/internal/proc"
)

// Reference model: the complete outcome set of the LOCK-BASED program under
// the machine's memory model (TSO with per-thread FIFO store buffers,
// store->load forwarding, fencing atomics, and a test&test&set lock whose
// release is a plain buffered store — exactly the semantics of
// internal/coherence's store buffer and internal/locks' TTS lock).
//
// The set is computed by exhaustive interleaving search, so it is the full
// architectural envelope, not a sample: every schedule, every store-buffer
// drain point. Containment against this set is therefore sound in the
// direction that matters — an elided outcome outside it is a genuine new
// behaviour — and free of the false positives a dynamically-explored
// lock-based baseline would produce when a seed sweep under-explores.
//
// The model over-approximates only where over-approximation is safe: it
// allows any drain schedule the FIFO discipline admits, including ones the
// timing simulator's concrete latencies would never produce.
//
// The search walks the state graph depth-first with in-place mutation and
// undo — a step is applied, explored, and reverted. The mutable state is
// itself the visited-set key: a fixed-size comparable stateKey, so neither a
// state's size nor its membership test costs an allocation. Only outcome
// strings allocate.

// micro-op kinds of the expanded thread program.
type mopKind uint8

const (
	mLoad mopKind = iota
	mStore
	mAcquire // fenced atomic lock acquisition (enabled when lock word free)
	mRelease // plain buffered store of 0 to the lock word
)

// mop is one micro-op. Locations are addressed by value slot (see
// stateKey), not by program location.
type mop struct {
	kind mopKind
	mem  int8  // mStore: slot written; mLoad: slot read (noSlot: never stored); mRelease: lockLoc
	load int8  // mLoad: the slot that records the value read
	val  uint8 // mStore: the value written
}

const (
	// lockLoc marks a store-buffer entry for the lock word.
	lockLoc int8 = -1
	// noSlot is the memory slot of a location no thread stores to: it
	// reads zero forever, so it needs no slot.
	noSlot int8 = -2
)

// sbEntry is one store-buffer entry.
type sbEntry struct {
	mem int8 // memory slot, or lockLoc
	val uint8
}

// maxThreadOps bounds one thread's op count and maxThreads a program's
// thread count inside the model's fixed-size state (sweep shapes use at most
// 3 of each; headroom is cheap). outcomesOf checks both bounds.
const (
	maxThreadOps = 8
	maxThreads   = 4
)

// Every value the model handles is 0, 1 (the held lock word) or a StoreVal,
// and must fit a stateKey byte. StoreVal spaces threads 8 apart, so the
// largest is (maxThreads-1)*8 + maxThreadOps; this constant fails to compile
// if it overflows a uint8.
const _ uint8 = (maxThreads-1)*8 + maxThreadOps

// tbufCap bounds one thread's store buffer: at most maxThreadOps data stores
// plus the lock release can be buffered at once (an acquire requires the
// buffer empty first).
const tbufCap = maxThreadOps + 1

// stateKey is the complete search state, and the visited-set key. Per
// thread: the next micro-op (pc) and how many of its store-buffer entries
// have drained (head). The buffer's contents need no room: entries are
// pushed in program order by the store and release micro-ops before pc, so
// (pc, head) determine exactly which are still buffered. The value slots
// hold, first, one slot per load op of the program (the value it read, zero
// until it executes) and then one slot per location some thread stores to
// (its memory word). Loads plus stored locations are at most the program's
// op count, so maxThreads*maxThreadOps slots always suffice. Every field is
// a function of the state and every state component is in a field, so the
// encoding is injective.
type stateKey struct {
	pc, head [maxThreads]uint8
	vals     [maxThreads * maxThreadOps]uint8
	lock     uint8
}

// threadBuf is one thread's FIFO store buffer: ents[head:tail], with head
// kept in stateKey. Draining advances head; undo rewinds it — entries are
// never overwritten until the enclosing push is itself undone.
type threadBuf struct {
	ents [tbufCap]sbEntry
	tail uint8
}

// explorer is the DFS over interleavings. It is reusable across programs
// (the map buckets and every scratch slice survive) — one per sweep worker.
type explorer struct {
	mops     [][]mop
	bufs     []threadBuf
	k        stateKey
	visited  map[stateKey]struct{}
	outcomes map[string]struct{}

	// Outcome formatting: memSlot maps a program location to its value
	// slot (noSlot when never stored); loadVals backs loadViews, one view
	// per thread; memVals holds the final word per location.
	memSlot   []int8
	loadVals  []uint64
	loadViews [][]uint64
	memVals   []uint64
	fmtBuf    []byte
	out       []string
}

func newExplorer() *explorer {
	return &explorer{
		visited:  make(map[stateKey]struct{}),
		outcomes: make(map[string]struct{}),
	}
}

// ReferenceOutcomes returns the sorted outcome set of the lock-based
// program: every FormatOutcome string a TSO execution respecting the lock
// can produce.
func ReferenceOutcomes(p Program) []string {
	return newExplorer().outcomesOf(p)
}

// outcomesOf computes ReferenceOutcomes on the explorer's reused storage.
// The returned slice is valid until the next call.
func (e *explorer) outcomesOf(p Program) []string {
	n := len(p.Threads)
	if n > maxThreads {
		panic("litmus: program exceeds the model's thread bound")
	}
	e.compile(p)
	e.k = stateKey{}
	clear(e.visited)
	clear(e.outcomes)

	e.explore()

	e.out = e.out[:0]
	for o := range e.outcomes {
		e.out = append(e.out, o)
	}
	slices.Sort(e.out)
	return e.out
}

// compile expands every thread into micro-ops and assigns the value slots:
// load slots in (thread, load order) order, then one memory slot per stored
// location in location order. Scratch slices are resized with
// slices.Grow(s[:0], n)[:n], which reuses the backing array (and the
// elements already in it) when its capacity suffices.
func (e *explorer) compile(p Program) {
	n := len(p.Threads)
	e.mops = slices.Grow(e.mops[:0], n)[:n]
	e.bufs = slices.Grow(e.bufs[:0], n)[:n]
	e.loadViews = slices.Grow(e.loadViews[:0], n)[:n]
	e.memSlot = slices.Grow(e.memSlot[:0], p.NumLocs)[:p.NumLocs]
	e.memVals = slices.Grow(e.memVals[:0], p.NumLocs)[:p.NumLocs]
	// stored marks a location some thread stores to, until it is numbered.
	const stored int8 = -3
	for l := range e.memSlot {
		e.memSlot[l] = noSlot
	}
	loads := 0
	for _, t := range p.Threads {
		if len(t.Ops) > maxThreadOps {
			panic("litmus: thread exceeds the model's op bound")
		}
		for _, o := range t.Ops {
			if o.Kind == Load {
				loads++
			} else {
				e.memSlot[o.Loc] = stored
			}
		}
	}
	next := int8(loads)
	for l := range e.memSlot {
		if e.memSlot[l] == stored {
			e.memSlot[l] = next
			next++
		}
	}
	e.loadVals = slices.Grow(e.loadVals[:0], loads)[:loads]
	load := int8(0)
	for ti, t := range p.Threads {
		first := load
		e.mops[ti], load = e.expandThread(ti, t, e.mops[ti][:0], load)
		e.loadViews[ti] = e.loadVals[first:load]
		e.bufs[ti].tail = 0
	}
}

// expandThread compiles a thread into micro-ops: its data ops plus the lock
// acquire/release brackets around the critical window. load is the next
// free load slot; the updated value is returned.
func (e *explorer) expandThread(tid int, t Thread, out []mop, load int8) ([]mop, int8) {
	for i, o := range t.Ops {
		if t.HasCrit() && i == int(t.CritLo) {
			out = append(out, mop{kind: mAcquire})
		}
		if o.Kind == Load {
			out = append(out, mop{kind: mLoad, mem: e.memSlot[o.Loc], load: load})
			load++
		} else {
			out = append(out, mop{kind: mStore, mem: e.memSlot[o.Loc], val: uint8(StoreVal(tid, i))})
		}
		if t.HasCrit() && i == int(t.CritHi)-1 {
			out = append(out, mop{kind: mRelease, mem: lockLoc})
		}
	}
	return out, load
}

// explore walks every enabled step from the current state, mutating in place
// and undoing each step after its subtree. Steps per thread: execute its
// next micro-op (if enabled), or drain the oldest entry of its store buffer.
func (e *explorer) explore() {
	if _, seen := e.visited[e.k]; seen {
		return
	}
	e.visited[e.k] = struct{}{}

	k := &e.k
	terminal := true
	for ti := range e.mops {
		buf := &e.bufs[ti]
		// Drain step.
		if head := k.head[ti]; head < buf.tail {
			terminal = false
			ent := buf.ents[head]
			k.head[ti]++
			if ent.mem == lockLoc {
				saved := k.lock
				k.lock = ent.val
				e.explore()
				k.lock = saved
			} else {
				saved := k.vals[ent.mem]
				k.vals[ent.mem] = ent.val
				e.explore()
				k.vals[ent.mem] = saved
			}
			k.head[ti]--
		}
		// Execute step.
		pc := k.pc[ti]
		if int(pc) >= len(e.mops[ti]) {
			continue
		}
		terminal = false
		m := e.mops[ti][pc]
		switch m.kind {
		case mLoad:
			var v uint8
			if m.mem != noSlot {
				var fwd bool
				if v, fwd = forward(buf, k.head[ti], m.mem); !fwd {
					v = k.vals[m.mem]
				}
			}
			k.pc[ti]++
			k.vals[m.load] = v
			e.explore()
			k.vals[m.load] = 0
			k.pc[ti]--
		case mStore, mRelease:
			// A release is a plain buffered store of 0 to the lock word.
			k.pc[ti]++
			buf.ents[buf.tail] = sbEntry{m.mem, m.val}
			buf.tail++
			e.explore()
			buf.tail--
			k.pc[ti]--
		case mAcquire:
			// Atomics fence: the buffer must have drained (drain steps get
			// the search there), and the lock word must be free in memory.
			if k.head[ti] == buf.tail && k.lock == 0 {
				k.pc[ti]++
				k.lock = 1
				e.explore()
				k.lock = 0
				k.pc[ti]--
			}
		}
	}
	if terminal {
		e.noteOutcome()
	}
}

// noteOutcome records the terminal state's outcome. Formatting goes
// through a reused buffer; only an outcome not yet in the set allocates its
// string.
func (e *explorer) noteOutcome() {
	for i := range e.loadVals {
		e.loadVals[i] = uint64(e.k.vals[i])
	}
	for l, s := range e.memSlot {
		e.memVals[l] = 0
		if s != noSlot {
			e.memVals[l] = uint64(e.k.vals[s])
		}
	}
	e.fmtBuf = proc.AppendOutcome(e.fmtBuf[:0], e.loadViews, e.memVals)
	if _, ok := e.outcomes[string(e.fmtBuf)]; !ok {
		e.outcomes[string(e.fmtBuf)] = struct{}{}
	}
}

// forward returns the newest buffered value for memory slot mem, if any
// (TSO store->load forwarding).
func forward(buf *threadBuf, head uint8, mem int8) (uint8, bool) {
	for i := int(buf.tail) - 1; i >= int(head); i-- {
		if buf.ents[i].mem == mem {
			return buf.ents[i].val, true
		}
	}
	return 0, false
}
