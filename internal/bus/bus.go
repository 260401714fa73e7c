// Package bus models the Sun-Gigaplane-style interconnect of the paper's
// target system (Table 2): a split-transaction, ordered broadcast address
// network with a fixed snoop latency, plus a point-to-point pipelined data
// network.
//
// The address network gives every coherence request a single global order
// point. That split — a request is *ordered* (ownership of record moves) long
// before its *data* arrives — is the protocol property that creates the
// cyclic-wait danger of the paper's Figure 6 and that TLR's marker/probe
// machinery resolves. The data network carries line data, and also TLR's two
// side-band message types (markers and probes, §3.1.1), which have no
// coherence interactions.
package bus

import (
	"fmt"
	"math/bits"

	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
	"tlrsim/internal/stamp"
	"tlrsim/internal/telemetry"
)

// Kind enumerates address-network transaction types for the MOESI protocol.
type Kind int

const (
	// GetS requests a readable (shared) copy of a line.
	GetS Kind = iota
	// GetX requests an exclusive, writable copy of a line (rd_X in the paper).
	GetX
	// Upgrade requests write permission for a line already held shared.
	Upgrade
	// WriteBack returns a dirty line to memory on eviction.
	WriteBack
)

func (k Kind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetX:
		return "GetX"
	case Upgrade:
		return "Upgrade"
	case WriteBack:
		return "WriteBack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MemID is the controller id of the memory/L2 controller on the bus.
const MemID = -1

// Txn is one address-network transaction. Requests generated from within a
// TLR transaction carry the issuing processor's timestamp (§2.2 step 3);
// requests from outside carry stamp.None().
type Txn struct {
	ID    uint64
	Kind  Kind
	Line  memsys.Addr
	Src   int
	Stamp stamp.Stamp

	// WBData carries the line payload for WriteBack transactions.
	WBData memsys.LineData

	// Ordered is the cycle at which the address bus granted (globally
	// ordered) this transaction; filled by the bus.
	Ordered sim.Time

	// Cancel (WriteBack only) is set by the issuing controller at the
	// write-back's own snoop when the data was superseded (an intervening
	// GetX took ownership of a fresher copy): memory must not apply it.
	Cancel bool

	// Nacked is set at snoop time when the owner refuses the request
	// (NACK-based ownership retention, the §3 alternative to deferral): the
	// transaction is void for every observer and the requester must retry.
	Nacked bool

	// Priority marks a forward-progress escalation: a request NACKed past
	// the pathological threshold reissues with Priority set, and no owner
	// (nor the fault injector) may NACK it again — the owner must resolve
	// it through the deferral/service machinery instead, which guarantees
	// the requester eventually completes.
	Priority bool

	// SrcHolds (Upgrade only) reports whether the requester still held a
	// valid copy of the line at the order point. A false value marks a void
	// upgrade: the copy it meant to promote was already invalidated, the
	// requester will convert to a full GetX, and no other cache may react.
	// Filled by the bus at snoop time so every controller sees one
	// consistent verdict.
	SrcHolds bool

	issued sim.Time
}

func (t *Txn) String() string {
	return fmt.Sprintf("txn#%d %s %s from %d %s", t.ID, t.Kind, t.Line, t.Src, t.Stamp)
}

// Snooper is a controller attached to the address network.
//
// The bus models a broadcast, but it reaches only the controllers the
// Holders filter names for the transaction's line, plus the requester and
// memory. The filter is exact by contract: the polls it leaves to the named
// controllers give the broadcast's owner and sharer answers, and a skipped
// controller's Snoop would have changed nothing, so skipping it is exactly
// the broadcast.
type Snooper interface {
	// SnoopOwner is a side-effect-free query asked at snoop time: does this
	// controller currently hold supplier-of-record responsibility for line?
	// (Either it holds the line in an owned state it has not yet passed on,
	// or it has a bus-ordered outstanding request that made it the pending
	// owner.) At most one controller may answer true. Asked of GetS and GetX
	// transactions only.
	SnoopOwner(line memsys.Addr) bool
	// SnoopShared is a side-effect-free query: does this controller hold any
	// valid copy of line, or a pending ordered request for it? Asked of the
	// requester of an Upgrade (its answer is Txn.SrcHolds) and of the other
	// controllers for a GetS, whose fill installs Exclusive only if none
	// answers true.
	SnoopShared(line memsys.Addr) bool
	// SnoopNack asks the supplier of record whether it refuses t (NACK-based
	// ownership retention). Consulted once per transaction, at snoop time,
	// for the owner only; a true result voids the transaction for everyone
	// and the requester retries after a backoff.
	SnoopNack(t *Txn) bool
	// Snoop processes transaction t. owner is the controller that answered
	// SnoopOwner (MemID if none, and always for an Upgrade or a WriteBack);
	// shared reports whether any controller other than t.Src answered
	// SnoopShared (false unless t is a GetS). Snoop runs on t.Src
	// (requesters learn their order point that way), on the controllers
	// whose Snoop can act on t, and on memory, in ascending id order with
	// memory last. A NACKed transaction, a WriteBack and a void Upgrade
	// (SrcHolds false) reach only t.Src and memory.
	Snoop(t *Txn, owner int, shared bool)
}

// Holders is the bus's snoop filter: per line, which controllers a
// transaction must reach.
type Holders interface {
	// Holders returns two bitmasks of controller ids for line, bit i%64 of
	// word i/64 for controller i; words past the end of a slice read as
	// zero.
	//
	// holders includes every controller that can act on a GetX or an
	// Upgrade of line and, whenever some controller other than a GetS's
	// requester answers SnoopShared for line, at least one such controller.
	// The bus dispatches GetX and Upgrade to holders and asks them the
	// SnoopShared question of a GetS.
	//
	// owners includes every controller that answers SnoopOwner for line,
	// and every controller that can act on a GetS of it. The bus asks
	// owners the SnoopOwner question and dispatches GetS to them.
	//
	// Extra bits cost only wasted calls; a missing bit skips a call that
	// mattered.
	Holders(line memsys.Addr) (holders, owners []uint64)
}

// Reactor is implemented by a Snooper that can tell, without side effects,
// whether its Snoop would change its state. Under the tlrpoison build tag
// the bus asks it of every controller a transaction does not reach, and
// panics on a true answer: the filter skipped a snoop that mattered.
type Reactor interface {
	SnoopReacts(t *Txn) bool
}

// Msg is a point-to-point message on the data network.
type Msg interface{ msgFrom() int }

// DataResp carries line data from a supplier to a requester, completing the
// split transaction begun by Txn ID Req. It says nothing about the state the
// fill installs: the requester decides that from the shared verdict it saw at
// its own order point.
type DataResp struct {
	Req  uint64
	Line memsys.Addr
	Data memsys.LineData
	From int
}

// Marker is TLR's "I am your upstream neighbour" message (§3.1.1): sent in
// response to a request for a block under conflict for which data is not
// provided immediately, so the requester learns whom to probe.
type Marker struct {
	Req  uint64
	Line memsys.Addr
	From int
}

// Probe propagates a conflicting request's timestamp upstream along a
// coherence chain toward the cache that holds valid data, restarting
// lower-priority holders (§3.1.1).
type Probe struct {
	Line  memsys.Addr
	Stamp stamp.Stamp // timestamp of the conflicting (downstream) request
	From  int
}

// Messages implement Msg with pointer receivers so they cross the interface
// without boxing. They are sent only through the pooled SendData /
// SendMarker / SendProbe helpers, which recycle each message once delivered.
func (m *DataResp) msgFrom() int { return m.From }
func (m *Marker) msgFrom() int   { return m.From }
func (m *Probe) msgFrom() int    { return m.From }

// Receiver accepts data-network messages.
type Receiver interface {
	Deliver(m Msg)
}

// Config holds interconnect timing parameters (paper Table 2 defaults are in
// the root package's DefaultConfig).
type Config struct {
	SnoopLat       uint64 // address broadcast + snoop resolution latency
	DataLat        uint64 // point-to-point data network latency
	ArbCycles      uint64 // minimum cycles between consecutive grants
	ArbJitter      uint64 // uniform random extra grant delay (0..ArbJitter)
	Occupancy      uint64 // per-endpoint data-network injection spacing
	MaxOutstanding int    // outstanding address transactions (120)
}

// Stats counts interconnect activity for the traffic results in §6.
type Stats struct {
	Txns      [WriteBack + 1]uint64 // indexed by Kind
	DataMsgs  uint64
	Markers   uint64
	Probes    uint64
	Nacks     uint64
	ArbStalls uint64 // cycles transactions spent queued for the address bus

	// Host work of snoop resolution, not simulated traffic: Snoop calls on
	// controllers (memory excluded) and SnoopOwner calls. They measure the
	// snoop filter, and nothing simulated depends on them.
	SnoopCalls uint64
	OwnerPolls uint64
}

// Bus is the interconnect: ordered address network + data network.
type Bus struct {
	k   *sim.Kernel
	cfg Config

	// Controllers sit in dense slices at index id+1, so memory (MemID)
	// is slot 0; nil marks an id nobody attached.
	snoopers []Snooper
	recvs    []Receiver
	sendFree []sim.Time // per-sender data-network injection horizon

	holders Holders

	queue       []*Txn
	nextGrant   sim.Time
	outstanding int
	granting    bool
	nextID      uint64

	// Transaction pool. A Txn returns to freeTxns when its requester calls
	// Complete. When that happens inside the transaction's own snoop
	// dispatch, the snoopers after the requester and memory still read it,
	// so the release waits until resolveSnoop returns: snooping names the
	// transaction being dispatched and snoopDone records its completion.
	freeTxns  []*Txn
	snooping  *Txn
	snoopDone bool

	// Free lists for recycled data-network messages: a message is reused the
	// moment its delivery event has run, so steady-state traffic allocates
	// nothing.
	freeData    []*DataResp
	freeMarkers []*Marker
	freeProbes  []*Probe

	// faults, when non-nil, perturbs grant timing and order, forces NACKs,
	// and delays marker/probe delivery — all within what the architecture
	// leaves unspecified. Nil (the default) costs one pointer test per
	// seam.
	faults *fault.Injector

	// occupancy, when non-nil, tracks queued plus outstanding transactions.
	occupancy *telemetry.Gauge

	stats Stats
}

// SetFaults attaches (or with nil detaches) the fault injector.
func (b *Bus) SetFaults(in *fault.Injector) { b.faults = in }

// SetOccupancy attaches (or with nil detaches) the occupancy gauge.
func (b *Bus) SetOccupancy(g *telemetry.Gauge) { b.occupancy = g }

// noteOccupancy moves the occupancy gauge after an enqueue or completion,
// the only two places queued plus outstanding changes.
func (b *Bus) noteOccupancy() {
	b.occupancy.Set(uint64(b.k.Now()), uint64(b.outstanding+len(b.queue)))
}

// New returns a bus on kernel k that polls the controllers h names.
func New(k *sim.Kernel, cfg Config, h Holders) *Bus {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 120
	}
	if cfg.ArbCycles == 0 {
		cfg.ArbCycles = 1
	}
	return &Bus{k: k, cfg: cfg, holders: h}
}

// Attach registers a controller under id for both snooping and data
// delivery. The memory controller attaches as MemID.
func (b *Bus) Attach(id int, s Snooper, r Receiver) {
	i := id + 1
	for len(b.snoopers) <= i {
		b.snoopers = append(b.snoopers, nil)
		b.recvs = append(b.recvs, nil)
		b.sendFree = append(b.sendFree, 0)
	}
	if b.snoopers[i] != nil {
		panic(fmt.Sprintf("bus: duplicate controller id %d", id))
	}
	b.snoopers[i] = s
	b.recvs[i] = r
}

// Stats returns accumulated interconnect counters.
func (b *Bus) Stats() *Stats { return &b.stats }

// Reset rewinds the interconnect to the state New constructs, keeping the
// attached controllers and the message and transaction free lists (pooling
// is invisible to the protocol: a recycled message is field-assigned before
// every send, and a recycled transaction is zeroed by NewTxn).
// The bus must be drained — no queued or outstanding transactions, no grant
// in flight — which the machine-level quiescence check guarantees.
func (b *Bus) Reset() {
	if b.outstanding != 0 || len(b.queue) != 0 || b.granting {
		panic("bus: Reset while transactions in flight")
	}
	b.nextGrant = 0
	b.nextID = 0
	clear(b.sendFree)
	b.stats = Stats{}
}

// NewTxn returns a zeroed transaction, recycled from the free list when one
// is there. The caller fills it in and passes it to Issue; the bus takes it
// back when the requester passes it to Complete.
func (b *Bus) NewTxn() *Txn {
	n := len(b.freeTxns)
	if n == 0 {
		return new(Txn)
	}
	t := b.freeTxns[n-1]
	b.freeTxns = b.freeTxns[:n-1]
	*t = Txn{}
	return t
}

// releaseTxn puts a completed transaction on the free list. Under the
// tlrpoison build tag it is overwritten with impossible values first, so a
// use after release fails loudly instead of reading the old request.
func (b *Bus) releaseTxn(t *Txn) {
	if Poison {
		*t = Txn{ID: ^uint64(0), Kind: Kind(-1), Line: ^memsys.Addr(0), Src: -2}
	}
	b.freeTxns = append(b.freeTxns, t)
}

// Issue queues transaction t for the address network. The bus assigns the
// transaction ID and, at grant time, the global order. t may come from
// NewTxn or be built by the caller; either way the bus recycles it once the
// requester passes it to Complete.
func (b *Bus) Issue(t *Txn) uint64 {
	b.nextID++
	t.ID = b.nextID
	t.issued = b.k.Now()
	b.stats.Txns[t.Kind]++
	b.queue = append(b.queue, t)
	b.noteOccupancy()
	b.pump()
	return t.ID
}

// Complete releases t's outstanding-transaction slot once its requester has
// fully finished the split transaction (data consumed, no data needed, or
// NACKed), and recycles t. It is the one release point of a transaction:
// the requester must hold no reference to t afterwards, and nobody else
// may still hold one. That holds because every other holder (the snoop
// event, a memory response, a coherence chain entry, a deferred request)
// is done with t before the requester can complete, with one exception
// the bus handles itself: a requester that completes inside t's own snoop
// dispatch, whose release waits until the dispatch returns.
func (b *Bus) Complete(t *Txn) {
	if b.outstanding <= 0 {
		panic("bus: Complete without outstanding transaction")
	}
	b.outstanding--
	if t == b.snooping {
		b.snoopDone = true
	} else {
		b.releaseTxn(t)
	}
	b.noteOccupancy()
	b.pump()
}

// pump grants the next queued transaction when the bus and an outstanding
// slot are free.
func (b *Bus) pump() {
	if b.granting || len(b.queue) == 0 || b.outstanding >= b.cfg.MaxOutstanding {
		return
	}
	b.granting = true
	at := b.nextGrant
	if now := b.k.Now(); at < now {
		at = now
	}
	if b.cfg.ArbJitter > 0 {
		at += sim.Time(uint64(b.k.Rand().Int63n(int64(b.cfg.ArbJitter + 1))))
	}
	// Injected arbitration delay: grant latency is unspecified, so any
	// finite stall is a legal schedule.
	if d := b.faults.GrantDelay(); d > 0 {
		at += sim.Time(d)
	}
	b.k.AtCall(at, grantEvent, b, nil, 0)
}

// grantEvent and snoopEvent are the pre-bound schedule callbacks
// (sim.Callback) for address-network arbitration and snoop resolution; they
// replace per-grant closure allocations.
func grantEvent(recv, _ any, _ uint64) { recv.(*Bus).grant() }

func snoopEvent(recv, arg any, _ uint64) { recv.(*Bus).resolveSnoop(arg.(*Txn)) }

func (b *Bus) grant() {
	b.granting = false
	if len(b.queue) == 0 || b.outstanding >= b.cfg.MaxOutstanding {
		return
	}
	// Requests are globally ordered only at grant time, so the arbiter may
	// legally pick any queued request; injection exercises non-FIFO orders.
	// The granted entry is removed in place, so the queue keeps its
	// backing array and Issue's append never reallocates in steady state.
	i := b.faults.PickGrant(len(b.queue))
	t := b.queue[i]
	n := copy(b.queue[i:], b.queue[i+1:])
	b.queue[i+n] = nil
	b.queue = b.queue[:i+n]
	b.outstanding++
	t.Ordered = b.k.Now()
	b.stats.ArbStalls += uint64(t.Ordered - t.issued)
	b.nextGrant = b.k.Now() + sim.Time(b.cfg.ArbCycles)

	// Snoop resolution: all controllers observe the transaction SnoopLat
	// cycles after the order point, atomically in one kernel event so the
	// ownership query and the state transitions are mutually consistent.
	b.k.AfterCall(b.cfg.SnoopLat, snoopEvent, b, t, 0)
	b.pump()
}

// resolveSnoop resolves t's snoop: it asks the questions t needs (the owner
// and sharer polls, the NACK), then dispatches Snoop to the requester and
// the controllers t reaches, in ascending id order, and to memory last. A
// Complete of t during the dispatch is honoured when it returns.
func (b *Bus) resolveSnoop(t *Txn) {
	b.snooping = t
	b.dispatchSnoop(t)
	b.snooping = nil
	if b.snoopDone {
		b.snoopDone = false
		b.releaseTxn(t)
	}
}

// dispatchSnoop resolves t against the line's filter with at most one
// lookup. A WriteBack, a void Upgrade and a NACKed request are void for
// every controller but the requester, so they reach no one else; an
// Upgrade's owner and sharer answers mean nothing to anyone, so it is not
// polled; a GetS reaches the owner candidates and a GetX or a live Upgrade
// the holders.
func (b *Bus) dispatchSnoop(t *Txn) {
	owner, shared := MemID, false
	var reach []uint64
	switch t.Kind {
	case Upgrade:
		t.SrcHolds = b.snoopers[t.Src+1].SnoopShared(t.Line)
		if t.SrcHolds {
			reach, _ = b.holders.Holders(t.Line)
		}
	case GetS, GetX:
		holders, owners := b.holders.Holders(t.Line)
		owner = b.pollOwner(t.Line, owners)
		reach = holders
		if t.Kind == GetS {
			shared = b.pollShared(t, holders)
			reach = owners
		}
		if owner != MemID && owner != t.Src && !t.Priority {
			// A forced NACK is injected under exactly the eligibility
			// condition where the owner itself may refuse, so every snooper
			// handles it through the ordinary NACK-retry path. Priority
			// escalations are exempt from both — that exemption IS the
			// forward-progress guarantee for requests the owner (or
			// injector) would otherwise refuse forever.
			if b.snoopers[owner+1].SnoopNack(t) || b.faults.ForceNack() {
				t.Nacked = true
				b.stats.Nacks++
				reach = nil
			}
		}
	}
	if Poison {
		b.checkBroadcast(t, owner, shared, reach)
	}
	// The reach masks are read once per word: a Snoop call changes only its
	// own controller's state and bits (anything it does to others travels
	// through Issue or the data network, both later events), so the bits of
	// controllers not yet visited cannot change during the loop.
	srcWord, srcBit := t.Src/64, uint64(1)<<(t.Src%64)
	for w := 0; w < len(reach) || w <= srcWord; w++ {
		var word uint64
		if w < len(reach) {
			word = reach[w]
		}
		if w == srcWord {
			word |= srcBit
		}
		for ; word != 0; word &= word - 1 {
			b.stats.SnoopCalls++
			b.snoopers[w*64+bits.TrailingZeros64(word)+1].Snoop(t, owner, shared)
		}
	}
	b.snoopers[MemID+1].Snoop(t, owner, shared)
}

// pollOwner returns the lowest-numbered candidate answering SnoopOwner for
// line, or MemID.
func (b *Bus) pollOwner(line memsys.Addr, owners []uint64) int {
	for w, word := range owners {
		for ; word != 0; word &= word - 1 {
			id := w*64 + bits.TrailingZeros64(word)
			b.stats.OwnerPolls++
			if b.snoopers[id+1].SnoopOwner(line) {
				return id
			}
		}
	}
	return MemID
}

// pollShared reports whether a holder other than t's requester answers
// SnoopShared for t's line.
func (b *Bus) pollShared(t *Txn, holders []uint64) bool {
	for w, word := range holders {
		for ; word != 0; word &= word - 1 {
			id := w*64 + bits.TrailingZeros64(word)
			if id != t.Src && b.snoopers[id+1].SnoopShared(t.Line) {
				return true
			}
		}
	}
	return false
}

// checkBroadcast is the tlrpoison oracle for the snoop filter. It asks every
// attached controller what a broadcast would have: the owner of a GetS or
// a GetX must be the one the candidate poll found, a GetS's sharer verdict
// the one the holder poll found, and no controller outside t's reach (the
// requester aside) may react to t. It runs before the dispatch, when every
// controller is in the state its Snoop would see, and it has no side
// effects.
func (b *Bus) checkBroadcast(t *Txn, owner int, shared bool, reach []uint64) {
	full, fullShared := MemID, false
	for id := 0; id+1 < len(b.snoopers); id++ {
		s := b.snoopers[id+1]
		if s == nil {
			continue
		}
		if t.Kind == GetS || t.Kind == GetX {
			if full == MemID && s.SnoopOwner(t.Line) {
				full = id
			}
			if t.Kind == GetS && id != t.Src && s.SnoopShared(t.Line) {
				fullShared = true
			}
		}
		if id == t.Src || id/64 < len(reach) && reach[id/64]&(1<<(id%64)) != 0 {
			continue
		}
		if r, ok := s.(Reactor); ok && r.SnoopReacts(t) {
			panic(fmt.Sprintf("bus: snoop filter skipped P%d, which reacts to %v", id, t))
		}
	}
	if full != owner {
		panic(fmt.Sprintf("bus: %v: candidate poll found owner %d, a broadcast %d", t, owner, full))
	}
	if fullShared != shared {
		panic(fmt.Sprintf("bus: %v: holder poll found shared=%v, a broadcast %v", t, shared, fullShared))
	}
}

// SendData sends a pooled DataResp completing split transaction req. data is
// copied into the message at call time.
func (b *Bus) SendData(to int, req uint64, line memsys.Addr, data *memsys.LineData, from int) {
	var m *DataResp
	if n := len(b.freeData); n > 0 {
		m, b.freeData = b.freeData[n-1], b.freeData[:n-1]
	} else {
		m = new(DataResp)
	}
	m.Req, m.Line, m.Data, m.From = req, line, *data, from
	b.stats.DataMsgs++
	b.sendMsg(to, m, 0)
}

// SendMarker sends a pooled Marker for transaction req.
func (b *Bus) SendMarker(to int, req uint64, line memsys.Addr, from int) {
	var m *Marker
	if n := len(b.freeMarkers); n > 0 {
		m, b.freeMarkers = b.freeMarkers[n-1], b.freeMarkers[:n-1]
	} else {
		m = new(Marker)
	}
	m.Req, m.Line, m.From = req, line, from
	b.stats.Markers++
	b.sendMsg(to, m, sim.Time(b.faults.MsgDelay()))
}

// SendProbe sends a pooled Probe carrying the conflicting timestamp ts.
func (b *Bus) SendProbe(to int, line memsys.Addr, ts stamp.Stamp, from int) {
	var m *Probe
	if n := len(b.freeProbes); n > 0 {
		m, b.freeProbes = b.freeProbes[n-1], b.freeProbes[:n-1]
	} else {
		m = new(Probe)
	}
	m.Line, m.Stamp, m.From = line, ts, from
	b.stats.Probes++
	b.sendMsg(to, m, sim.Time(b.faults.MsgDelay()))
}

// sendMsg schedules the delivery event. extra is injected marker/probe delay
// (message latency is unspecified beyond occupancy spacing, so delivery may
// legally land arbitrarily later; data responses stay on time — the split
// transaction is already accounted against the requester).
func (b *Bus) sendMsg(to int, msg Msg, extra sim.Time) {
	from := msg.msgFrom()
	depart := b.sendFree[from+1]
	if now := b.k.Now(); depart < now {
		depart = now
	}
	b.sendFree[from+1] = depart + sim.Time(b.cfg.Occupancy)
	if to+1 >= len(b.recvs) || b.recvs[to+1] == nil {
		panic(fmt.Sprintf("bus: Send to unknown controller %d", to))
	}
	b.k.AtCall(depart+sim.Time(b.cfg.DataLat)+extra, deliverRecycleEvent, b, msg, uint64(int64(to)))
}

// deliverRecycleEvent is the pre-bound delivery callback: recv is the Bus,
// arg the message, n the destination id. The message returns to its free
// list once Deliver returns, so receivers must not retain it.
func deliverRecycleEvent(recv, arg any, n uint64) {
	b := recv.(*Bus)
	msg := arg.(Msg)
	b.recvs[int(int64(n))+1].Deliver(msg)
	switch v := msg.(type) {
	case *DataResp:
		b.freeData = append(b.freeData, v)
	case *Marker:
		b.freeMarkers = append(b.freeMarkers, v)
	case *Probe:
		b.freeProbes = append(b.freeProbes, v)
	}
}

// Outstanding reports in-flight address transactions (for quiescence checks
// in tests).
func (b *Bus) Outstanding() int { return b.outstanding }

// Queued reports transactions waiting for arbitration.
func (b *Bus) Queued() int { return len(b.queue) }
