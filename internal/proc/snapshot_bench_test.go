package proc

import "testing"

// The warm-reuse win at its source: constructing a full baseline machine vs
// rewinding an existing one. The litmus sweep does this 1.4 million times.

func BenchmarkMachineConstructVsReset(b *testing.B) {
	cfg := BaselineConfig(2, TLR, 1)
	b.Run("construct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = NewMachine(cfg)
		}
	})
	b.Run("reset", func(b *testing.B) {
		m := NewMachine(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Reset(&cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Reset must not allocate: warm reuse exists to take machine construction
// off the sweep's allocation profile entirely.
func TestResetAllocFree(t *testing.T) {
	cfg := BaselineConfig(2, TLR, 1)
	m := NewMachine(cfg)
	if err := m.Reset(&cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Reset(&cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Machine.Reset allocates %.1f objects per call, want 0", allocs)
	}
}
