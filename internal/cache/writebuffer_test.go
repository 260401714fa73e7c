package cache

import (
	"testing"
	"testing/quick"

	"tlrsim/internal/memsys"
)

func TestWriteBufferForwarding(t *testing.T) {
	wb := NewWriteBuffer(4)
	if _, ok := wb.Read(0x100); ok {
		t.Fatal("empty buffer should not forward")
	}
	wb.Write(0x100, 7)
	wb.Write(0x108, 8)
	if v, ok := wb.Read(0x100); !ok || v != 7 {
		t.Fatal("forwarding failed")
	}
	wb.Write(0x100, 9) // overwrite merges
	if v, _ := wb.Read(0x100); v != 9 {
		t.Fatal("merge failed")
	}
	if wb.LineCount() != 1 {
		t.Fatalf("LineCount = %d, want 1 (both words in one line)", wb.LineCount())
	}
}

func TestWriteBufferLineCapacity(t *testing.T) {
	wb := NewWriteBuffer(2)
	if !wb.Write(0x000, 1) || !wb.Write(0x040, 2) {
		t.Fatal("first two lines must fit")
	}
	// Same lines again: still fine (coalescing).
	if !wb.Write(0x008, 3) || !wb.Write(0x048, 4) {
		t.Fatal("coalesced writes must not consume capacity")
	}
	if wb.Write(0x080, 5) {
		t.Fatal("third distinct line must overflow")
	}
	// Overflowing write must not have been buffered.
	if _, ok := wb.Read(0x080); ok {
		t.Fatal("overflowed write leaked into buffer")
	}
}

func TestWriteBufferDrain(t *testing.T) {
	wb := NewWriteBuffer(4)
	wb.Write(0x040, 11)
	wb.Write(0x078, 22) // word 7 of line 0x40
	wb.Write(0x080, 33)
	var data memsys.LineData
	data[1] = 99 // pre-existing word survives
	wb.Drain(0x040, &data)
	if data[0] != 11 || data[7] != 22 || data[1] != 99 {
		t.Fatalf("drain result %v", data)
	}
	if wb.HasLine(0x040) {
		t.Fatal("drained line still present")
	}
	if !wb.HasLine(0x080) {
		t.Fatal("undrained line lost")
	}
	if wb.LineCount() != 1 {
		t.Fatalf("LineCount = %d", wb.LineCount())
	}
}

func TestWriteBufferDiscard(t *testing.T) {
	wb := NewWriteBuffer(4)
	wb.Write(0x40, 1)
	wb.Write(0x80, 2)
	wb.Discard()
	if !wb.Empty() || wb.LineCount() != 0 {
		t.Fatal("discard left residue")
	}
	if _, ok := wb.Read(0x40); ok {
		t.Fatal("discarded value still readable")
	}
	// Capacity fully restored.
	for i := 0; i < 4; i++ {
		if !wb.Write(memsys.Addr(i*64), uint64(i)) {
			t.Fatal("capacity not restored after discard")
		}
	}
}

func TestWriteBufferLinesSorted(t *testing.T) {
	wb := NewWriteBuffer(8)
	for _, a := range []memsys.Addr{0x1c0, 0x40, 0x100, 0x80} {
		wb.Write(a, 1)
	}
	lines := wb.Lines()
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatalf("lines not sorted: %v", lines)
		}
	}
}

// Property: against a map oracle, over interleaved Write, Drain and
// Discard, the last write wins per word, a write to a new line is refused
// exactly when the buffer is full, Drain applies a line's words and drops
// them, Lines is strictly ascending and names exactly the buffered lines,
// and draining every line reconstructs the buffered state.
func TestPropertyWriteBufferSemantics(t *testing.T) {
	type op struct {
		Kind uint8 // 0-5 Write, 6 Drain, 7 Discard
		Slot uint8
		Val  uint64
	}
	const maxLines = 4
	f := func(ops []op) bool {
		wb := NewWriteBuffer(maxLines)
		want := map[memsys.Addr]uint64{}
		lines := func() map[memsys.Addr]bool {
			ls := map[memsys.Addr]bool{}
			for a := range want {
				ls[a.Line()] = true
			}
			return ls
		}
		for _, o := range ops {
			a := memsys.Addr(o.Slot%64) * memsys.WordBytes
			switch o.Kind % 8 {
			case 6:
				// Words the buffer does not hold must keep the line's
				// committed payload.
				var d memsys.LineData
				for i := range d {
					d[i] = ^uint64(i)
				}
				wb.Drain(a, &d)
				for i, v := range d {
					w := a.Line() + memsys.Addr(i*memsys.WordBytes)
					wv, ok := want[w]
					if !ok {
						wv = ^uint64(i)
					}
					if v != wv {
						return false
					}
					delete(want, w)
				}
			case 7:
				wb.Discard()
				clear(want)
			default:
				full := !lines()[a.Line()] && len(lines()) >= maxLines
				if wb.Write(a, o.Val) == full {
					return false
				}
				if !full {
					want[a] = o.Val
				}
			}
			got := wb.Lines()
			if len(got) != len(lines()) || wb.LineCount() != len(got) || wb.Empty() != (len(want) == 0) {
				return false
			}
			for i, l := range got {
				if !lines()[l] || i > 0 && got[i-1] >= l {
					return false
				}
			}
			for s := 0; s < 64; s++ {
				w := memsys.Addr(s * memsys.WordBytes)
				v, ok := wb.Read(w)
				if wv, in := want[w]; ok != in || v != wv {
					return false
				}
			}
		}
		// Drain everything and confirm reconstruction.
		for wb.LineCount() > 0 {
			line := wb.Lines()[0]
			var d memsys.LineData
			wb.Drain(line, &d)
			for i, v := range d {
				if wv := want[line+memsys.Addr(i*memsys.WordBytes)]; wv != v {
					return false
				}
			}
		}
		return wb.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
