package core

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestElisionStartsOptimistic(t *testing.T) {
	p := NewElisionPredictor(8)
	if !p.ShouldElide(1) {
		t.Fatal("fresh sites should be elided")
	}
}

func TestElisionBacksOffAndRecovers(t *testing.T) {
	p := NewElisionPredictor(8)
	p.Failure(1)
	p.Failure(1)
	if p.ShouldElide(1) {
		t.Fatal("two failures should disable elision (3 -> 1 < threshold 2)")
	}
	p.Success(1)
	if !p.ShouldElide(1) {
		t.Fatal("a success should restore confidence")
	}
}

func TestElisionSaturates(t *testing.T) {
	p := NewElisionPredictor(8)
	for i := 0; i < 10; i++ {
		p.Failure(1)
	}
	if p.ShouldElide(1) {
		t.Fatal("should stay disabled")
	}
	// Saturation at 0 means exactly two successes re-enable.
	p.Success(1)
	if p.ShouldElide(1) {
		t.Fatal("one success should not yet re-enable")
	}
	p.Success(1)
	if !p.ShouldElide(1) {
		t.Fatal("two successes should re-enable")
	}
}

func TestElisionTableReplacement(t *testing.T) {
	p := NewElisionPredictor(2)
	p.Failure(1)
	p.Failure(1) // site 1 disabled
	p.get(2)
	p.get(3) // evicts site 1 (FIFO)
	if !p.ShouldElide(1) {
		t.Fatal("evicted site should return to optimistic default")
	}
}

func TestElisionSitesIndependent(t *testing.T) {
	p := NewElisionPredictor(8)
	p.Failure(1)
	p.Failure(1)
	if !p.ShouldElide(2) {
		t.Fatal("failure on one site must not affect another")
	}
}

func TestRMWColdNeverPredicts(t *testing.T) {
	p := NewRMWPredictor(8)
	if p.PredictExclusive(1) {
		t.Fatal("cold predictor must not predict exclusive")
	}
	if p.PredictExclusive(0) {
		t.Fatal("site 0 must never predict")
	}
}

func TestRMWTrainsOnLoadStorePairs(t *testing.T) {
	p := NewRMWPredictor(8)
	for i := 0; i < 2; i++ {
		p.NoteLoad(7, 0x100)
		p.NoteStore(0x100)
		p.EndSection()
	}
	if !p.PredictExclusive(7) {
		t.Fatal("two RMW observations should train the site")
	}
}

func TestRMWDecaysOnPureReads(t *testing.T) {
	p := NewRMWPredictor(8)
	// Train fully.
	for i := 0; i < 3; i++ {
		p.NoteLoad(7, 0x100)
		p.NoteStore(0x100)
		p.EndSection()
	}
	// Then the site becomes a pure reader.
	for i := 0; i < 3; i++ {
		p.NoteLoad(7, 0x100)
		p.EndSection()
	}
	if p.PredictExclusive(7) {
		t.Fatal("pure reads should decay the prediction")
	}
}

func TestRMWStoreWithoutLoadIsIgnored(t *testing.T) {
	p := NewRMWPredictor(8)
	p.NoteStore(0x500)
	p.EndSection()
	if p.TableUsed() != 0 {
		t.Fatal("untracked store should not allocate entries")
	}
}

func TestRMWDifferentAddressNoTraining(t *testing.T) {
	p := NewRMWPredictor(8)
	for i := 0; i < 4; i++ {
		p.NoteLoad(7, 0x100)
		p.NoteStore(0x200) // different address
		p.EndSection()
	}
	if p.PredictExclusive(7) {
		t.Fatal("stores to other addresses must not train the load site")
	}
}

func TestRMWTableBounded(t *testing.T) {
	p := NewRMWPredictor(4)
	for site := 1; site <= 20; site++ {
		p.NoteLoad(site, 0x100)
		p.NoteStore(0x100)
		p.EndSection()
	}
	if p.TableUsed() > 4 {
		t.Fatalf("table grew to %d entries, cap 4", p.TableUsed())
	}
}

// EndSection trains its untrained loads in program order, so the table it
// leaves is the same every time. Sites 1 and 2 fill a two-entry table at
// full confidence; loads at sites 3, 1 and 2 then end untrained. Site 3
// evicts site 1, site 1 evicts site 2 and site 2 evicts site 3, each
// entering at 0, so the table ends as sites [1 2] at counters [0 0].
func TestRMWEndSectionDeterministic(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		p := NewRMWPredictor(2)
		for _, site := range []int{1, 2} {
			for i := 0; i < 3; i++ {
				p.NoteLoad(site, 0x40)
				p.NoteStore(0x40)
			}
		}
		p.NoteLoad(3, 0x40)
		p.NoteLoad(1, 0x80)
		p.NoteLoad(2, 0xc0)
		p.EndSection()
		if got := fmt.Sprint(p.sites, p.counters); got != "[1 2] [0 0]" {
			t.Fatalf("trial %d: table (sites, counters) = %s, want [1 2] [0 0]", trial, got)
		}
	}
}

// Property: predictor counters always stay within [0, max], regardless of
// the event sequence.
func TestPropertyPredictorCountersBounded(t *testing.T) {
	f := func(events []uint8) bool {
		e := NewElisionPredictor(4)
		r := NewRMWPredictor(4)
		for _, ev := range events {
			site := int(ev%3) + 1
			switch ev % 5 {
			case 0:
				e.Success(site)
			case 1:
				e.Failure(site)
			case 2:
				r.NoteLoad(site, 0x40)
			case 3:
				r.NoteStore(0x40)
			case 4:
				r.EndSection()
			}
			for _, c := range e.counters {
				if c < 0 || c > e.max {
					return false
				}
			}
			for _, c := range r.counters {
				if c < 0 || c > r.max {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
