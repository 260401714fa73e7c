package litmus

import (
	"bytes"
	"encoding/binary"
	"slices"

	"tlrsim/internal/proc"
)

// Reference model: the complete outcome set of the LOCK-BASED program under
// the machine's memory model (TSO with per-thread FIFO store buffers,
// store->load forwarding, fencing atomics, and a test&test&set lock whose
// release is a plain buffered store — exactly the semantics of
// internal/coherence's store buffer and internal/locks' TTS lock).
//
// The set is computed by exhaustive search, so it is the full architectural
// envelope, not a sample: every outcome of every schedule and every
// store-buffer drain point. Containment against this set is therefore sound
// in the direction that matters — an elided outcome outside it is a genuine
// new behaviour — and free of the false positives a dynamically-explored
// lock-based baseline would produce when a seed sweep under-explores.
//
// The model over-approximates only where over-approximation is safe: it
// allows any drain schedule the FIFO discipline admits, including ones the
// timing simulator's concrete latencies would never produce.
//
// The search walks the state graph depth-first, mutating one fixed-size
// comparable stateKey in place; since the thread programs are static, the
// key is the whole mutable state, so a step is undone by restoring a copy.
// The visited set is an open-addressed table of stateKeys (stateTable)
// reused across programs, and outcomes are formatted into a reused byte
// arena, so once warm the search allocates nothing.
//
// Not every interleaving is walked. A step that commutes with every step
// the threads can still take is taken alone, without branching: a
// persistent set of size one. Three kinds of step qualify:
//
//	(a) a store or release micro-op: it only appends to its own buffer,
//	    which no other thread reads and whose own drains consume the other
//	    end;
//	(b) a load of a slot no other thread can still write (a location
//	    nobody stores to included): it reads the same value from memory or
//	    its own buffer whenever it runs, into a load slot of its own;
//	(c) a drain of a buffer's head entry to a slot no other thread can
//	    still read or write — for the lock word, no other thread can still
//	    acquire or release: nobody else observes when the word changes, and
//	    the thread's own later loads see the value forwarded or in memory.
//
// Each commutes with every step that can still run before it, and neither
// enables nor disables it, so a schedule that takes other steps first
// reaches, with the forced step swapped forward, a state the reduced search
// also reaches. Every step advances a pc or a head, so the state graph is
// acyclic, and a persistent-set search of an acyclic graph reaches every
// terminal state even with state caching: the terminal states, and with
// them the outcome set, are exactly those of the full search. Forcing is
// deterministic, so only the states where the search branches are recorded
// as visited. The string-keyed oracle in the tests still walks every
// interleaving unreduced.

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

// tbufCap bounds one thread's store-buffer entries: its data stores, at
// most maxThreadOps, plus one release.
const tbufCap = maxThreadOps + 1

// maxThreadMops bounds one thread's micro-ops: its data ops plus one
// acquire and one release.
const maxThreadMops = maxThreadOps + 2

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

// hash mixes the key's words (multiply, then fold the high half down); the
// table indexes by the top bits of the result. Only the first valWords
// words of vals are mixed: a program's slots past them are always zero.
func (k *stateKey) hash(valWords int) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(binary.LittleEndian.Uint32(k.pc[:])) | uint64(binary.LittleEndian.Uint32(k.head[:]))<<32
	h = (h ^ uint64(k.lock)) * m
	for i := 0; i < 8*valWords; i += 8 {
		h ^= h >> 32
		h = (h ^ binary.LittleEndian.Uint64(k.vals[i:i+8])) * m
	}
	return h
}

// stateTable is the visited set: open addressing with linear probing over
// stateKeys. A slot is live when its generation stamp is the table's, so
// reset is a counter bump rather than a clear, and the slots are reused
// from program to program. The table doubles when half full.
type stateTable struct {
	slots []tableSlot
	gen   uint32
	n     int  // live keys
	shift uint // 64 - log2(len(slots))
	words int  // stateKey.hash's valWords for the current program
}

type tableSlot struct {
	k   stateKey
	gen uint32
}

const tableMinLog2 = 9

// reset empties the table for a program whose value slots fit in the
// first words 8-byte words of stateKey.vals.
func (t *stateTable) reset(words int) {
	t.n, t.words = 0, words
	t.gen++
	if t.gen == 0 {
		// The stamp wrapped: slots of every earlier generation must read
		// empty again.
		clear(t.slots)
		t.gen = 1
	}
	if t.slots == nil {
		t.slots = make([]tableSlot, 1<<tableMinLog2)
		t.shift = 64 - tableMinLog2
	}
}

// insert adds k, reporting whether it was absent.
func (t *stateTable) insert(k *stateKey) bool {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(k.hash(t.words) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			s.k, s.gen = *k, t.gen
			t.n++
			return true
		}
		if s.k == *k {
			return false
		}
	}
}

// grow doubles the table and re-inserts the live keys.
func (t *stateTable) grow() {
	old := t.slots
	t.slots = make([]tableSlot, 2*len(old))
	t.shift--
	t.n = 0
	for i := range old {
		if old[i].gen == t.gen {
			t.insert(&old[i].k)
		}
	}
}

// threadProg is one thread's compiled program. Its store-buffer entries
// are static: the j-th entry is always the j-th store or release micro-op,
// so the buffer holds ents[head:tail[pc]], executing a store only advances
// pc, and draining only advances head.
type threadProg struct {
	mops [maxThreadMops]mop
	n    uint8 // micro-ops
	ents [tbufCap]sbEntry
	// tail[pc] counts the entries pushed before micro-op pc.
	tail [maxThreadMops + 1]uint8
	// skip[pc] is the first micro-op at or after pc that is not a store or
	// release (n if none): where the thread rests once it reaches pc.
	skip [maxThreadMops + 1]uint8
	// writes[h] is the slot mask the thread can still write once h of its
	// entries have drained: its entries from index h on, buffered or not
	// yet pushed. reads[pc] is the mask its loads from micro-op pc on can
	// still read. A thread that can still acquire can still release, so
	// writes covers the lock word for both.
	writes [tbufCap + 1]uint64
	reads  [maxThreadMops + 1]uint64
}

// lockBit is the lock word's bit in the reduction's slot masks (memory
// slots take bits 0..len(stateKey.vals)-1).
const lockBit = uint64(1) << 63

// slotBit is mem's bit in a slot mask: lockLoc maps to lockBit, noSlot to
// no bit (nothing writes it).
func slotBit(mem int8) uint64 {
	switch mem {
	case lockLoc:
		return lockBit
	case noSlot:
		return 0
	}
	return 1 << uint(mem)
}

// The kinds of forced step, (a) to (c) at the top of the file.
const (
	ruleStore = iota // (a) a store or release
	ruleLoad         // (b) a load of a slot no other thread can still write
	ruleDrain        // (c) a drain to a slot no other thread can still touch
	numRules
)

// explorer is the DFS over interleavings. It is reusable across programs
// (the visited table and every scratch slice survive) — one per sweep
// worker.
type explorer struct {
	th   [maxThreads]threadProg
	n    int // threads
	k    stateKey
	seen stateTable

	// fired counts the steps the last outcomesOf forced, per kind (test
	// instrumentation).
	fired [numRules]int

	// Outcome formatting: memSlot maps a program location to its value
	// slot (noSlot when never stored); loadVals backs loadViews, one view
	// per thread; memVals holds the final word per location.
	memSlot   []int8
	loadVals  []uint64
	loadViews [][]uint64
	memVals   []uint64

	// out is the outcome arena outcomesOf returns a view of.
	out outcomeSet
}

// outcomeSet is an outcome set in one byte arena: outcome i is
// buf[ends[i-1]:ends[i]] (from 0 for i == 0), each a FormatOutcome
// encoding, in the order the search reached them. Outcomes are distinct.
type outcomeSet struct {
	buf  []byte
	ends []int32
}

func (s outcomeSet) len() int { return len(s.ends) }

func (s outcomeSet) at(i int) []byte {
	lo := int32(0)
	if i > 0 {
		lo = s.ends[i-1]
	}
	return s.buf[lo:s.ends[i]]
}

// index returns the position of outcome o in the set, or -1.
func (s outcomeSet) index(o []byte) int {
	for i := range s.ends {
		if bytes.Equal(s.at(i), o) {
			return i
		}
	}
	return -1
}

// strings returns the set as sorted strings, allocated afresh.
func (s outcomeSet) strings() []string {
	out := make([]string, s.len())
	for i := range out {
		out[i] = string(s.at(i))
	}
	slices.Sort(out)
	return out
}

func newExplorer() *explorer {
	return &explorer{}
}

// ReferenceOutcomes returns the sorted outcome set of the lock-based
// program: every FormatOutcome string a TSO execution respecting the lock
// can produce.
func ReferenceOutcomes(p Program) []string {
	return newExplorer().outcomesOf(p).strings()
}

// outcomesOf computes the reference outcome set in the explorer's reused
// arena, unsorted. The returned set is valid until the next call.
func (e *explorer) outcomesOf(p Program) outcomeSet {
	n := len(p.Threads)
	if n > maxThreads {
		panic("litmus: program exceeds the model's thread bound")
	}
	slots := e.compile(p)
	e.k = stateKey{}
	e.fired = [numRules]int{}
	// Leading stores are forced.
	for ti := 0; ti < e.n; ti++ {
		e.k.pc[ti] = e.th[ti].skip[0]
		e.fired[ruleStore] += int(e.k.pc[ti])
	}
	e.seen.reset((slots + 7) / 8)
	e.out = outcomeSet{buf: e.out.buf[:0], ends: e.out.ends[:0]}

	e.explore()

	return e.out
}

// compile expands every thread into micro-ops and assigns the value slots:
// load slots in (thread, load order) order, then one memory slot per stored
// location in location order. It returns the number of value slots.
// Scratch slices are resized with slices.Grow(s[:0], n)[:n], which reuses
// the backing array (and the elements already in it) when its capacity
// suffices.
func (e *explorer) compile(p Program) int {
	n := len(p.Threads)
	e.n = n
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
		load = e.compileThread(ti, t, load)
		e.loadViews[ti] = e.loadVals[first:load]
	}
	return int(next)
}

// compileThread expands thread tid into micro-ops — its data ops plus the
// lock acquire/release brackets around the critical window — and fills its
// entries, tails and masks. load is the next free load slot; the updated
// value is returned.
func (e *explorer) compileThread(tid int, t Thread, load int8) int8 {
	th := &e.th[tid]
	th.n = 0
	add := func(m mop) {
		th.mops[th.n] = m
		th.n++
	}
	for i, o := range t.Ops {
		if t.HasCrit() && i == int(t.CritLo) {
			add(mop{kind: mAcquire})
		}
		if o.Kind == Load {
			add(mop{kind: mLoad, mem: e.memSlot[o.Loc], load: load})
			load++
		} else {
			add(mop{kind: mStore, mem: e.memSlot[o.Loc], val: uint8(StoreVal(tid, i))})
		}
		if t.HasCrit() && i == int(t.CritHi)-1 {
			add(mop{kind: mRelease, mem: lockLoc})
		}
	}
	ents := uint8(0)
	for pc, m := range th.mops[:th.n] {
		th.tail[pc] = ents
		if m.kind == mStore || m.kind == mRelease {
			th.ents[ents] = sbEntry{m.mem, m.val}
			ents++
		}
	}
	th.tail[th.n] = ents
	th.skip[th.n] = th.n
	for pc := int(th.n) - 1; pc >= 0; pc-- {
		th.skip[pc] = uint8(pc)
		if m := th.mops[pc]; m.kind == mStore || m.kind == mRelease {
			th.skip[pc] = th.skip[pc+1]
		}
	}
	th.writes[ents], th.reads[th.n] = 0, 0
	for pc := int(th.n) - 1; pc >= 0; pc-- {
		m := th.mops[pc]
		th.reads[pc] = th.reads[pc+1]
		switch m.kind {
		case mStore, mRelease:
			ents--
			th.writes[ents] = th.writes[ents+1] | slotBit(m.mem)
		case mLoad:
			th.reads[pc] |= slotBit(m.mem)
		}
	}
	return load
}

// explore searches every state the reduced search reaches from the current
// one. It takes forced steps in place until none applies, then, at a state
// not visited before, branches on every enabled step: per thread, drain the
// oldest entry of its store buffer, or execute its next micro-op. explore
// leaves e.k changed; its caller restores it.
func (e *explorer) explore() {
	for {
		ti, drain, rule, ok := e.forced()
		if !ok {
			break
		}
		e.fired[rule]++
		e.apply(ti, drain)
	}
	if !e.seen.insert(&e.k) {
		return
	}
	k := &e.k
	here := *k
	terminal := true
	for ti := 0; ti < e.n; ti++ {
		th := &e.th[ti]
		pc, head := here.pc[ti], here.head[ti]
		if head < th.tail[pc] {
			terminal = false
			e.apply(ti, true)
			e.explore()
			*k = here
		}
		if pc >= th.n {
			continue
		}
		terminal = false
		// Atomics fence: an acquire waits for its own buffer to drain
		// (drain steps get the search there) and for the lock word to be
		// free in memory. Every other micro-op is always enabled.
		if th.mops[pc].kind == mAcquire && (head != th.tail[pc] || here.lock != 0) {
			continue
		}
		e.apply(ti, false)
		e.explore()
		*k = here
	}
	if terminal {
		e.noteOutcome()
	}
}

// forced picks a step of kind (b) or (c) (see the top of the file),
// trying each thread in order and, per thread, its load before its drain.
// Kind (a) needs no search: apply moves pc past stores and releases as soon
// as they are reached (threadProg.skip).
func (e *explorer) forced() (ti int, drain bool, rule int, ok bool) {
	k := &e.k
	n := e.n
	var can [maxThreads]uint64 // slots each thread can still write or read
	var wr [maxThreads]uint64  // slots each thread can still write
	for t := 0; t < n; t++ {
		th := &e.th[t]
		wr[t] = th.writes[k.head[t]]
		can[t] = wr[t] | th.reads[k.pc[t]]
	}
	for t := 0; t < n; t++ {
		th := &e.th[t]
		var othersW, othersAny uint64
		for u := 0; u < n; u++ {
			if u != t {
				othersW |= wr[u]
				othersAny |= can[u]
			}
		}
		pc, head := k.pc[t], k.head[t]
		if pc < th.n {
			if m := th.mops[pc]; m.kind == mLoad && othersW&slotBit(m.mem) == 0 {
				return t, false, ruleLoad, true
			}
		}
		if head < th.tail[pc] && othersAny&slotBit(th.ents[head].mem) == 0 {
			return t, true, ruleDrain, true
		}
	}
	return 0, false, 0, false
}

// apply takes thread ti's drain step (drain) or execute step, which must be
// enabled. The thread's pc never rests on a store or release, so the step
// executed is a load or an acquire.
func (e *explorer) apply(ti int, drain bool) {
	k, th := &e.k, &e.th[ti]
	if drain {
		ent := th.ents[k.head[ti]]
		k.head[ti]++
		if ent.mem == lockLoc {
			k.lock = ent.val
		} else {
			k.vals[ent.mem] = ent.val
		}
		return
	}
	// Stores and releases (a release is a plain buffered store of 0 to the
	// lock word) that follow are forced: pc moves past them, which pushes
	// their entries.
	pc := k.pc[ti]
	k.pc[ti] = th.skip[pc+1]
	e.fired[ruleStore] += int(k.pc[ti] - pc - 1)
	switch m := th.mops[pc]; m.kind {
	case mLoad:
		var v uint8
		if m.mem != noSlot {
			var fwd bool
			if v, fwd = th.forward(k.head[ti], pc, m.mem); !fwd {
				v = k.vals[m.mem]
			}
		}
		k.vals[m.load] = v
	case mAcquire:
		k.lock = 1
	}
}

// noteOutcome records the terminal state's outcome. A terminal state's key
// is its load values and memory words (every pc at the end, every buffer
// drained, the lock free), which the outcome encoding renders one-to-one;
// the visited table admits each state once, so every terminal reached is a
// new outcome and needs no set. The outcome is formatted straight into the
// arena, so once the arena has grown to a program's needs nothing
// allocates.
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
	e.out.buf = proc.AppendOutcome(e.out.buf, e.loadViews, e.memVals)
	e.out.ends = append(e.out.ends, int32(len(e.out.buf)))
}

// forward returns the newest value the buffer ents[head:tail[pc]] holds
// for memory slot mem, if any (TSO store->load forwarding).
func (th *threadProg) forward(head, pc uint8, mem int8) (uint8, bool) {
	for i := int(th.tail[pc]) - 1; i >= int(head); i-- {
		if th.ents[i].mem == mem {
			return th.ents[i].val, true
		}
	}
	return 0, false
}
