package bus

import (
	"slices"
	"testing"

	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
	"tlrsim/internal/stamp"
)

// fakeCtrl records snoops; owns configurable lines.
type fakeCtrl struct {
	id     int
	owns   map[memsys.Addr]bool
	nacks  bool
	snoops []snoopRec
}

type snoopRec struct {
	txn    *Txn
	owner  int
	shared bool
}

func newFake(id int) *fakeCtrl { return &fakeCtrl{id: id, owns: map[memsys.Addr]bool{}} }

func (f *fakeCtrl) SnoopOwner(line memsys.Addr) bool  { return f.owns[line] }
func (f *fakeCtrl) SnoopShared(line memsys.Addr) bool { return f.owns[line] }
func (f *fakeCtrl) SnoopNack(t *Txn) bool             { return f.nacks }
func (f *fakeCtrl) Snoop(t *Txn, owner int, shared bool) {
	f.snoops = append(f.snoops, snoopRec{t, owner, shared})
}
func (f *fakeCtrl) Deliver(Msg) {}

// everyone is a filter naming controllers 0..n-1 as holders and owner
// candidates of every line, so the bus polls every fake controller as a
// full broadcast would.
type everyone []uint64

func holdersOf(n int) everyone {
	h := make(everyone, (n+63)/64)
	for i := 0; i < n; i++ {
		h[i/64] |= 1 << (i % 64)
	}
	return h
}

func (h everyone) Holders(memsys.Addr) (holders, owners []uint64) { return h, h }

func testbus(k *sim.Kernel, n int) (*Bus, []*fakeCtrl, *fakeCtrl) {
	b := New(k, Config{SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2, MaxOutstanding: 8}, holdersOf(n))
	ctrls := make([]*fakeCtrl, n)
	for i := range ctrls {
		ctrls[i] = newFake(i)
		b.Attach(i, ctrls[i], ctrls[i])
	}
	return b, ctrls, attachMem(b)
}

// attachMem attaches a fake memory controller, which every snoop reaches.
func attachMem(b *Bus) *fakeCtrl {
	mem := newFake(MemID)
	b.Attach(MemID, mem, mem)
	return mem
}

func TestBroadcastReachesAllSnoopers(t *testing.T) {
	k := sim.New(1)
	b, ctrls, mem := testbus(k, 4)
	b.Issue(&Txn{Kind: GetX, Line: 0x1000, Src: 2, Stamp: stamp.New(1, 2)})
	k.Run()
	for _, c := range append(ctrls, mem) {
		if len(c.snoops) != 1 {
			t.Fatalf("controller %d saw %d snoops, want 1", c.id, len(c.snoops))
		}
		if c.snoops[0].owner != MemID {
			t.Fatalf("owner = %d, want memory", c.snoops[0].owner)
		}
	}
}

// split is a filter with distinct holder and owner-candidate masks, the
// same for every line.
type split struct{ holders, owners []uint64 }

func (f split) Holders(memsys.Addr) (holders, owners []uint64) { return f.holders, f.owners }

// orderCtrl appends its id to a shared log on every Snoop; it holds a copy
// of (answers SnoopShared for) every line when holds is set, and owns
// (answers SnoopOwner for) every line when owns is set.
type orderCtrl struct {
	id          int
	log         *[]int
	holds, owns bool
}

func (c *orderCtrl) SnoopOwner(memsys.Addr) bool  { return c.owns }
func (c *orderCtrl) SnoopShared(memsys.Addr) bool { return c.holds }
func (c *orderCtrl) SnoopNack(*Txn) bool          { return false }
func (c *orderCtrl) Snoop(*Txn, int, bool)        { *c.log = append(*c.log, c.id) }

// orderBus attaches n orderCtrls and memory to a bus on filter f.
func orderBus(k *sim.Kernel, n int, f Holders) (*Bus, []*orderCtrl, *[]int) {
	b := New(k, Config{SnoopLat: 20, DataLat: 20, ArbCycles: 2, MaxOutstanding: 8}, f)
	log := new([]int)
	ctrls := make([]*orderCtrl, n)
	for i := range ctrls {
		ctrls[i] = &orderCtrl{id: i, log: log}
		b.Attach(i, ctrls[i], newFake(i))
	}
	b.Attach(MemID, &orderCtrl{id: MemID, log: log}, newFake(MemID))
	return b, ctrls, log
}

// TestSnoopReachesHoldersAndRequester: a GetX and a live Upgrade reach the
// line's holders, a GetS its owner candidates, each with the requester and
// memory, in ascending id order with memory last, across mask words. The
// owner poll asks the candidates only.
func TestSnoopReachesHoldersAndRequester(t *testing.T) {
	holders, owners := make([]uint64, 2), make([]uint64, 2)
	holders[0] |= 1 << 3
	holders[1] |= 1 << (66 % 64)
	owners[0] |= 1 << 5
	owners[1] |= 1 << (68 % 64)
	for _, tc := range []struct {
		kind  Kind
		want  []int
		polls uint64
	}{
		{GetX, []int{3, 40, 66, MemID}, 2},
		{Upgrade, []int{3, 40, 66, MemID}, 0},
		{GetS, []int{5, 40, 68, MemID}, 2},
	} {
		k := sim.New(1)
		b, ctrls, log := orderBus(k, 70, split{holders, owners})
		ctrls[40].holds = true // the upgrader's copy is live
		b.Issue(&Txn{Kind: tc.kind, Line: 0x40, Src: 40})
		k.Run()
		if !slices.Equal(*log, tc.want) {
			t.Errorf("%v: snoop order %v, want %v", tc.kind, *log, tc.want)
		}
		if s := b.Stats(); s.SnoopCalls != uint64(len(tc.want)-1) || s.OwnerPolls != tc.polls {
			t.Errorf("%v: SnoopCalls %d, OwnerPolls %d, want %d and %d", tc.kind, s.SnoopCalls, s.OwnerPolls, len(tc.want)-1, tc.polls)
		}
	}
}

// TestVoidTransactionsReachOnlyRequester: a NACKed GetX, a void Upgrade
// (the requester's copy is gone) and a WriteBack are void for everyone but
// their requester, so they call Snoop only on it and on memory, although
// every controller is a holder and an owner candidate. The Upgrade and the
// WriteBack ask no owner question either.
func TestVoidTransactionsReachOnlyRequester(t *testing.T) {
	for _, tc := range []struct {
		name  string
		txn   Txn
		polls uint64
	}{
		{"nacked GetX", Txn{Kind: GetX, Line: 0x40, Src: 0}, 3},
		{"void Upgrade", Txn{Kind: Upgrade, Line: 0x40, Src: 1}, 0},
		{"WriteBack", Txn{Kind: WriteBack, Line: 0x40, Src: 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			b, ctrls, mem := testbus(k, 4)
			ctrls[2].owns[0x40] = true
			ctrls[2].nacks = true
			tx := tc.txn
			b.Issue(&tx)
			k.Run()
			if tc.txn.Kind == GetX && !tx.Nacked {
				t.Fatal("the owner's refusal did not NACK the GetX")
			}
			for _, c := range ctrls {
				want := 0
				if c.id == tx.Src {
					want = 1
				}
				if len(c.snoops) != want {
					t.Errorf("P%d saw %d snoops, want %d", c.id, len(c.snoops), want)
				}
			}
			if len(mem.snoops) != 1 {
				t.Errorf("memory saw %d snoops, want 1", len(mem.snoops))
			}
			if s := b.Stats(); s.SnoopCalls != 1 || s.OwnerPolls != tc.polls {
				t.Errorf("SnoopCalls %d, OwnerPolls %d, want 1 and %d", s.SnoopCalls, s.OwnerPolls, tc.polls)
			}
		})
	}
}

func TestOwnerResolution(t *testing.T) {
	k := sim.New(1)
	b, ctrls, mem := testbus(k, 4)
	ctrls[3].owns[0x1000] = true
	b.Issue(&Txn{Kind: GetS, Line: 0x1000, Src: 0})
	k.Run()
	if mem.snoops[0].owner != 3 {
		t.Fatalf("owner = %d, want 3", mem.snoops[0].owner)
	}
}

func TestOwnerPollStopsAtFirst(t *testing.T) {
	// Two claimants would be a protocol bug elsewhere, but the bus picks the
	// lowest id deterministically.
	k := sim.New(1)
	b, ctrls, _ := testbus(k, 4)
	ctrls[1].owns[0x40] = true
	ctrls[2].owns[0x40] = true
	b.Issue(&Txn{Kind: GetS, Line: 0x40, Src: 0})
	k.Run()
	if ctrls[0].snoops[0].owner != 1 {
		t.Fatalf("owner = %d, want 1", ctrls[0].snoops[0].owner)
	}
}

func TestGlobalOrderMatchesIssueOrder(t *testing.T) {
	k := sim.New(1)
	b, ctrls, _ := testbus(k, 2)
	t1 := &Txn{Kind: GetX, Line: 0x40, Src: 0}
	t2 := &Txn{Kind: GetX, Line: 0x80, Src: 1}
	b.Issue(t1)
	b.Issue(t2)
	k.Run()
	if !(t1.Ordered < t2.Ordered) {
		t.Fatalf("order times %d, %d: want strictly increasing", t1.Ordered, t2.Ordered)
	}
	if len(ctrls[0].snoops) != 2 || ctrls[0].snoops[0].txn != t1 || ctrls[0].snoops[1].txn != t2 {
		t.Fatal("snoop order does not match issue order")
	}
}

func TestSnoopLatency(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{SnoopLat: 20, DataLat: 20, ArbCycles: 1}, holdersOf(1))
	c := newFake(0)
	var snoopAt sim.Time
	b.Attach(0, snoopFunc(func(tx *Txn, owner int, shared bool) { snoopAt = k.Now() }), c)
	attachMem(b)
	tx := &Txn{Kind: GetS, Line: 0x40, Src: 0}
	b.Issue(tx)
	k.Run()
	if snoopAt != tx.Ordered+20 {
		t.Fatalf("snoop at %d, ordered %d, want +20", snoopAt, tx.Ordered)
	}
}

type snoopFunc func(t *Txn, owner int, shared bool)

func (f snoopFunc) SnoopOwner(memsys.Addr) bool          { return false }
func (f snoopFunc) SnoopShared(memsys.Addr) bool         { return false }
func (f snoopFunc) SnoopNack(*Txn) bool                  { return false }
func (f snoopFunc) Snoop(t *Txn, owner int, shared bool) { f(t, owner, shared) }

func TestMaxOutstandingThrottles(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{SnoopLat: 5, ArbCycles: 1, MaxOutstanding: 2}, holdersOf(1))
	c := newFake(0)
	b.Attach(0, c, c)
	attachMem(b)
	for i := 0; i < 5; i++ {
		b.Issue(&Txn{Kind: GetS, Line: memsys.Addr(i * 64), Src: 0})
	}
	k.Run()
	if len(c.snoops) != 2 {
		t.Fatalf("saw %d snoops with 2 outstanding slots and no Complete, want 2", len(c.snoops))
	}
	// Releasing slots lets the rest through.
	b.Complete(c.snoops[0].txn)
	b.Complete(c.snoops[1].txn)
	k.Run()
	if len(c.snoops) != 4 {
		t.Fatalf("saw %d snoops after 2 Completes, want 4", len(c.snoops))
	}
}

func TestCompleteUnderflowPanics(t *testing.T) {
	k := sim.New(1)
	b, _, _ := testbus(k, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete with nothing outstanding must panic")
		}
	}()
	b.Complete(&Txn{})
}

// TestDataDelivery sends two pooled data responses in turn and checks each
// payload inside Deliver, since a message is recycled once Deliver returns.
// The second send must reuse the first message and carry its own payload.
func TestDataDelivery(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{DataLat: 20, Occupancy: 2}, holdersOf(2))
	var got []DataResp
	var ptrs []*DataResp
	r := recvFunc(func(m Msg) {
		d := m.(*DataResp)
		got, ptrs = append(got, *d), append(ptrs, d)
	})
	b.Attach(0, newFake(0), recvFunc(func(Msg) {}))
	b.Attach(1, newFake(1), r)
	var d memsys.LineData
	d[3] = 77
	b.SendData(1, 9, 0x40, &d, 0)
	d[3] = 78 // the payload is copied at send time: this write must not reach it
	k.Run()
	d[3] = 88
	b.SendData(1, 10, 0x80, &d, 0)
	k.Run()
	if len(got) != 2 {
		t.Fatalf("got %d msgs, want 2", len(got))
	}
	want := []DataResp{{Req: 9, Line: 0x40, From: 0}, {Req: 10, Line: 0x80, From: 0}}
	want[0].Data[3], want[1].Data[3] = 77, 88
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("msg %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if ptrs[0] != ptrs[1] {
		t.Fatal("the delivered message was not recycled for the next send")
	}
}

func TestSendOccupancySerialisesPerSource(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{SnoopLat: 20, DataLat: 10, Occupancy: 4, ArbCycles: 1}, holdersOf(2))
	var arrivals []sim.Time
	r := recvFunc(func(m Msg) { arrivals = append(arrivals, k.Now()) })
	b.Attach(0, newFake(0), r)
	b.Attach(1, newFake(1), recvFunc(func(Msg) {}))
	// Three back-to-back sends from source 1: spaced by occupancy.
	for i := 0; i < 3; i++ {
		b.SendMarker(0, uint64(i), 0x40, 1)
	}
	k.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 10 || arrivals[1] != 14 || arrivals[2] != 18 {
		t.Fatalf("arrivals = %v, want [10 14 18]", arrivals)
	}
}

type recvFunc func(Msg)

func (f recvFunc) Deliver(m Msg) { f(m) }

func TestStatsCounters(t *testing.T) {
	k := sim.New(1)
	b, _, _ := testbus(k, 2)
	b.Issue(&Txn{Kind: GetX, Line: 0x40, Src: 0})
	b.Issue(&Txn{Kind: GetS, Line: 0x80, Src: 1})
	var d memsys.LineData
	b.SendData(1, 1, 0x40, &d, 0)
	b.SendMarker(1, 1, 0x40, 0)
	b.SendProbe(0, 0x80, stamp.None(), 1)
	k.Run()
	s := b.Stats()
	if s.Txns[GetX] != 1 || s.Txns[GetS] != 1 || s.DataMsgs != 1 || s.Markers != 1 || s.Probes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeterministicWithJitter(t *testing.T) {
	run := func() []sim.Time {
		k := sim.New(99)
		b := New(k, Config{SnoopLat: 20, ArbCycles: 2, ArbJitter: 5}, holdersOf(1))
		c := newFake(0)
		b.Attach(0, c, c)
		attachMem(b)
		txns := make([]*Txn, 10)
		for i := range txns {
			txns[i] = &Txn{Kind: GetS, Line: memsys.Addr(i * 64), Src: 0}
			b.Issue(txns[i])
		}
		k.Run()
		out := make([]sim.Time, len(txns))
		for i, tx := range txns {
			out[i] = tx.Ordered
		}
		return out
	}
	a, bseq := run(), run()
	for i := range a {
		if a[i] != bseq[i] {
			t.Fatalf("jittered grants not reproducible: %v vs %v", a, bseq)
		}
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	k := sim.New(1)
	b, _, _ := testbus(k, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach must panic")
		}
	}()
	b.Attach(0, newFake(0), newFake(0))
}

func TestWriteBackCarriesData(t *testing.T) {
	k := sim.New(1)
	b, ctrls, mem := testbus(k, 2)
	var d memsys.LineData
	d[0] = 123
	b.Issue(&Txn{Kind: WriteBack, Line: 0x40, Src: 0, WBData: d, Stamp: stamp.None()})
	k.Run()
	if mem.snoops[0].txn.WBData[0] != 123 {
		t.Fatal("writeback data lost")
	}
	_ = ctrls
}

func TestNackPollVoidsTransaction(t *testing.T) {
	k := sim.New(1)
	b, ctrls, mem := testbus(k, 3)
	ctrls[2].owns[0x40] = true
	ctrls[2].nacks = true
	tx := &Txn{Kind: GetX, Line: 0x40, Src: 0}
	b.Issue(tx)
	k.Run()
	if !tx.Nacked {
		t.Fatal("owner refusal should mark the transaction nacked")
	}
	if b.Stats().Nacks != 1 {
		t.Fatal("nack not counted")
	}
	_ = mem
}

func TestNackNotConsultedForOwnRequests(t *testing.T) {
	k := sim.New(1)
	b, ctrls, _ := testbus(k, 2)
	ctrls[0].owns[0x40] = true
	ctrls[0].nacks = true
	tx := &Txn{Kind: GetX, Line: 0x40, Src: 0} // requester is the owner
	b.Issue(tx)
	k.Run()
	if tx.Nacked {
		t.Fatal("a controller must not nack its own request")
	}
}

// A warm Issue -> grant -> snoop -> Complete cycle allocates nothing: the
// queue removes granted entries in place, so its backing array is reused,
// and the transaction comes from the bus's free list.
func TestIssueGrantCompleteAllocFree(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{SnoopLat: 5, ArbCycles: 1, MaxOutstanding: 4}, holdersOf(2))
	var done []*Txn
	complete := snoopFunc(func(t *Txn, _ int, _ bool) { done = append(done, t) })
	idle := snoopFunc(func(*Txn, int, bool) {})
	b.Attach(0, complete, recvFunc(func(Msg) {}))
	b.Attach(1, idle, recvFunc(func(Msg) {}))
	b.Attach(MemID, idle, recvFunc(func(Msg) {}))
	cycle := func() {
		for i := 0; i < 6; i++ {
			t := b.NewTxn()
			t.Kind, t.Line, t.Src = GetS, memsys.Addr(i*64), 0
			b.Issue(t)
		}
		// Complete outside the dispatch, as a data fill would, until every
		// queued transaction has been granted and completed.
		for b.Queued() > 0 || b.Outstanding() > 0 {
			k.Run()
			for _, t := range done {
				b.Complete(t)
			}
			done = done[:0]
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm Issue/grant/Complete cycle allocates %.1f objects, want 0", n)
	}
}

// Completing a transaction inside its own snoop dispatch must not recycle
// it until the dispatch ends: snoopers after the requester, and memory,
// still read it.
func TestCompleteInsideDispatchDefersRelease(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{SnoopLat: 5, ArbCycles: 1}, holdersOf(2))
	var memSaw *Txn
	var memKind Kind
	freeDuring := -1
	b.Attach(0, snoopFunc(func(t *Txn, _ int, _ bool) { b.Complete(t) }), recvFunc(func(Msg) {}))
	b.Attach(1, newFake(1), recvFunc(func(Msg) {}))
	b.Attach(MemID, snoopFunc(func(t *Txn, _ int, _ bool) {
		memSaw, memKind, freeDuring = t, t.Kind, len(b.freeTxns)
	}), recvFunc(func(Msg) {}))
	tx := b.NewTxn()
	tx.Kind, tx.Line, tx.Src = Upgrade, 0x40, 0
	b.Issue(tx)
	k.Run()
	if memSaw != tx || memKind != Upgrade {
		t.Fatalf("memory saw %v (kind %v) after the requester completed, want the live transaction", memSaw, memKind)
	}
	if freeDuring != 0 {
		t.Fatalf("free list held %d transactions during the dispatch, want 0", freeDuring)
	}
	if got := b.NewTxn(); got != tx {
		t.Fatal("a transaction completed inside its dispatch was not recycled after it")
	}
}
