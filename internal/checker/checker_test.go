package checker

import (
	"strings"
	"testing"
	"testing/quick"

	"tlrsim/internal/memsys"
)

// rw builds a read or write set from (address, value) pairs.
func rw(pairs ...uint64) *memsys.WordSet {
	s := new(memsys.WordSet)
	for i := 0; i+1 < len(pairs); i += 2 {
		s.Put(memsys.Addr(pairs[i]), pairs[i+1])
	}
	return s
}

func TestSerialCommitsValidate(t *testing.T) {
	c := New()
	c.CommitTxn(0, rw(0x100, 0), rw(0x100, 1))
	c.CommitTxn(1, rw(0x100, 1), rw(0x100, 2))
	c.CommitTxn(0, rw(0x100, 2), rw(0x100, 3))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Word(0x100) != 3 {
		t.Fatalf("shadow = %d, want 3", c.Word(0x100))
	}
}

func TestStaleReadDetected(t *testing.T) {
	c := New()
	c.CommitTxn(0, rw(), rw(0x100, 5))
	c.CommitTxn(1, rw(0x100, 4), rw(0x100, 6)) // read 4, but 5 was committed
	err := c.Err()
	if err == nil {
		t.Fatal("stale read not detected")
	}
	if !strings.Contains(err.Error(), "architectural value is 5") {
		t.Fatalf("unhelpful error: %v", err)
	}
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want 1 record", vs)
	}
	want := Violation{Kind: TxnReadStale, CPU: 1, Addr: 0x100, Got: 4, Want: 5, Txn: 2}
	if vs[0] != want {
		t.Fatalf("violation = %+v, want %+v", vs[0], want)
	}
}

func TestPreloadSeedsShadow(t *testing.T) {
	c := New()
	c.Preload(0x200, 42)
	c.CommitTxn(0, rw(0x200, 42), rw())
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestPlainOpsValidate(t *testing.T) {
	c := New()
	c.PlainStore(0, 0x300, 7)
	c.PlainLoad(1, 0x300, 7, false)
	c.PlainLoad(1, 0x300, 9, true) // forwarded: older value is legal
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	c.PlainLoad(1, 0x300, 9, false)
	if c.Err() == nil {
		t.Fatal("incoherent plain load not detected")
	}
	want := Violation{Kind: LoadIncoherent, CPU: 1, Addr: 0x300, Got: 9, Want: 7}
	if vs := c.Violations(); len(vs) != 1 || vs[0] != want {
		t.Fatalf("violations = %+v, want [%+v]", vs, want)
	}
}

func TestPlainRMW(t *testing.T) {
	c := New()
	c.PlainStore(0, 0x400, 10)
	c.PlainRMW(1, 0x400, 10, 11, true)
	c.PlainRMW(2, 0x400, 11, 99, false) // failed CAS: observes but no write
	c.PlainLoad(0, 0x400, 11, false)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	c.PlainRMW(3, 0x400, 10, 12, true) // observes stale value
	if c.Err() == nil {
		t.Fatal("stale RMW not detected")
	}
	if vs := c.Violations(); len(vs) != 1 || vs[0].Kind != RMWStale || vs[0].Want != 11 {
		t.Fatalf("violations = %+v, want one RMWStale with Want=11", vs)
	}
}

func TestViolationLimitBounded(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		c.PlainLoad(0, 0x500, uint64(i)+1, false)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "100 violation(s)") {
		t.Fatalf("err = %v, want the full count with retention bounded", err)
	}
	if len(c.Violations()) > c.limit {
		t.Fatalf("violations unbounded: %d", len(c.Violations()))
	}
}

func TestStatsCount(t *testing.T) {
	c := New()
	c.CommitTxn(0, rw(), rw())
	c.PlainStore(0, 0x10, 1)
	c.PlainLoad(0, 0x10, 1, false)
	txns, plain := c.Stats()
	if txns != 1 || plain != 2 {
		t.Fatalf("stats = %d, %d", txns, plain)
	}
}

// Property: any interleaving of serial counter transactions validates, and
// the shadow equals the transaction count.
func TestPropertySerialHistoryValidates(t *testing.T) {
	f := func(cpus []uint8) bool {
		c := New()
		var v uint64
		for _, cpu := range cpus {
			c.CommitTxn(int(cpu), rw(0x40, v), rw(0x40, v+1))
			v++
		}
		return c.Err() == nil && c.Word(0x40) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a history with exactly one lost update is always caught.
func TestPropertyLostUpdateCaught(t *testing.T) {
	f := func(n uint8, at uint8) bool {
		steps := int(n%20) + 2
		lost := int(at) % steps
		if lost == 0 {
			lost = 1 // the first read of 0 is always consistent
		}
		c := New()
		var v uint64
		for i := 0; i < steps; i++ {
			read := v
			if i == lost {
				read = v - 1 // re-reads the pre-predecessor value
			}
			c.CommitTxn(0, rw(0x40, read), rw(0x40, read+1))
			v = read + 1
		}
		return c.Err() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a read set keeps the first value recorded per word (as the
// controller records a transaction's reads), and the checker validates it
// in ascending address order. Against an all-zero shadow every non-zero
// read is stale, so the retained violations must name each such word once,
// in ascending order, with its first recorded value.
func TestPropertyReadSetFirstValueAscending(t *testing.T) {
	type read struct {
		Slot uint8
		Val  uint8
	}
	f := func(reads []read) bool {
		var rs memsys.WordSet
		first := map[memsys.Addr]uint64{}
		for _, r := range reads {
			a := memsys.Addr(r.Slot%32) * 24 // 32 words over 12 lines
			rs.Record(a, uint64(r.Val))
			if _, ok := first[a]; !ok {
				first[a] = uint64(r.Val)
			}
		}
		for a, v := range first {
			if got, ok := rs.Get(a); !ok || got != v {
				return false
			}
		}
		c := New()
		c.limit = len(first) + 1
		c.CommitTxn(0, &rs, rw())
		stale := 0
		for _, v := range first {
			if v != 0 {
				stale++
			}
		}
		vs := c.Violations()
		if len(vs) != stale {
			return false
		}
		for i, v := range vs {
			if v.Got != first[v.Addr] || v.Want != 0 || i > 0 && vs[i-1].Addr >= v.Addr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
