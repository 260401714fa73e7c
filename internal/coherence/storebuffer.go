package coherence

import (
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
)

// storeBuffer is the TSO store buffer for NON-speculative stores (Table 2's
// "aggressive implementation" of total store ordering [8]): a plain store
// retires into the buffer in one cycle and drains to the cache in program
// order in the background, hiding store miss latency — most visibly the
// lock-release store of a BASE critical section. The issuing processor
// forwards its own buffered values; other processors see a store only when
// it drains (its global ordering point, which is also when the functional
// checker applies it).
//
// Ordering rules implemented here:
//   - store→store: drains strictly in FIFO order;
//   - load→own-store: forwards the newest buffered value per word;
//   - atomics (LL/SC, Swap, CAS, FetchAdd) and transaction begin/commit
//     fence: they wait for the buffer to empty first.
type storeBuffer struct {
	entries  []sbEntry
	max      int
	draining bool
	// onEmpty holds fences (a Fence callback, or an SC or atomic to
	// re-issue) waiting for the buffer to drain.
	onEmpty sbQueue

	// full-stall support: stores arriving at a full buffer wait here.
	onSpace sbQueue
}

type sbEntry struct {
	addr memsys.Addr
	val  uint64
}

// sbWaiter is a store-buffer wait-queue entry: a Fence callback triple
// cb(recv, nil, w.n), or, with cb nil, the operation w to re-issue (a store
// waiting for space, an SC or atomic waiting for the drain).
type sbWaiter struct {
	cb   sim.Callback
	recv any
	w    waiter
}

// sbQueue is one FIFO of store-buffer waiters, fired in batches: a batch is
// the entries queued when it starts, and an entry queued while it runs (by
// one of its waiters, or by a batch nested inside it) waits for the next
// batch. Fired entries are compacted away once no batch is running, so the
// queue keeps its backing array.
type sbQueue struct {
	q      []sbWaiter
	head   int // q[:head] have fired or are firing
	firing int // depth of nested fire calls
}

func (wq *sbQueue) push(e sbWaiter) { wq.q = append(wq.q, e) }

func (wq *sbQueue) reset() {
	clear(wq.q)
	wq.q, wq.head, wq.firing = wq.q[:0], 0, 0
}

// fire runs the current batch of wq in FIFO order.
func (c *Controller) fire(wq *sbQueue) {
	start, end := wq.head, len(wq.q)
	if start == end {
		return
	}
	wq.head = end
	wq.firing++
	for i := start; i < end; i++ {
		e := wq.q[i] // re-read: a push during the batch may move the array
		if e.cb != nil {
			e.cb(e.recv, nil, e.w.n)
			continue
		}
		switch e.w.kind {
		case waitStore:
			c.sbStore(e.w)
		case waitSC:
			c.sc(e.w)
		default:
			c.rmw(e.w)
		}
	}
	wq.firing--
	if wq.firing == 0 {
		n := copy(wq.q, wq.q[wq.head:])
		clear(wq.q[n:])
		wq.q, wq.head = wq.q[:n], 0
	}
}

func newStoreBuffer(max int) *storeBuffer {
	if max <= 0 {
		return nil
	}
	return &storeBuffer{max: max}
}

// forward returns the newest buffered value for a word, if any.
func (sb *storeBuffer) forward(a memsys.Addr) (uint64, bool) {
	for i := len(sb.entries) - 1; i >= 0; i-- {
		if sb.entries[i].addr == a {
			return sb.entries[i].val, true
		}
	}
	return 0, false
}

// empty reports whether nothing is buffered.
func (sb *storeBuffer) empty() bool { return len(sb.entries) == 0 }

// push buffers a store; full=false means the caller must wait for space.
func (sb *storeBuffer) push(a memsys.Addr, v uint64) bool {
	if len(sb.entries) >= sb.max {
		return false
	}
	sb.entries = append(sb.entries, sbEntry{a, v})
	return true
}

// sbStore retries a non-speculative store (a waitStore record) that found
// the store buffer full.
func (c *Controller) sbStore(w waiter) {
	if !c.sb.push(w.addr, w.val) {
		// Buffer full: the store (and the processor) stalls for space.
		c.sb.onSpace.push(sbWaiter{w: w})
		return
	}
	c.sbDrain()
	w.sink(w.n, w.val, true)
}

// sbDrain retires the head entry through the normal blocking store path.
func (c *Controller) sbDrain() {
	if c.sb.draining || c.sb.empty() {
		return
	}
	c.sb.draining = true
	head := c.sb.entries[0]
	c.storeExec(waiter{kind: waitStore, sink: c.drained, addr: head.addr, val: head.val})
}

// sbDrained completes the head entry's drain: the entry leaves the buffer
// (removed in place, so push keeps reusing the array), stores waiting for
// space retry, fences run once the buffer is empty, and the next entry
// starts draining.
func (c *Controller) sbDrained(_, _ uint64, _ bool) {
	sb := c.sb
	sb.draining = false
	sb.entries = sb.entries[:copy(sb.entries, sb.entries[1:])]
	c.fire(&sb.onSpace)
	if sb.empty() {
		c.fire(&sb.onEmpty)
	}
	c.sbDrain()
}

// Fence runs cb(recv, nil, n) after all buffered stores have drained
// (immediately without a store buffer, or when it is empty). Transaction
// boundaries use it; atomics fence internally.
func (c *Controller) Fence(cb sim.Callback, recv any, n uint64) {
	if c.sb == nil || c.sb.empty() {
		cb(recv, nil, n)
		return
	}
	c.sb.onEmpty.push(sbWaiter{cb: cb, recv: recv, w: waiter{n: n}})
}

// sbForward lets loads observe the processor's own buffered stores.
func (c *Controller) sbForward(a memsys.Addr) (uint64, bool) {
	if c.sb == nil {
		return 0, false
	}
	return c.sb.forward(a)
}

// storeBufferedLines reports buffered entries (quiescence checks).
func (c *Controller) storeBufferedLen() int {
	if c.sb == nil {
		return 0
	}
	return len(c.sb.entries)
}
