package proc

import (
	"errors"
	"runtime"
	"testing"
)

// TestFailedRunsLeakNoThreads: a run that dies on its event budget must
// unwind its unfinished threads instead of leaving them suspended forever.
func TestFailedRunsLeakNoThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		cfg := BaselineConfig(2, TLR, int64(i+1))
		cfg.MaxEvents = 2000
		m := NewMachine(cfg)
		a := m.Alloc.PaddedWord()
		forever := func(tc *TC) {
			for {
				tc.Store(a, tc.Load(a)+1)
			}
		}
		var stall *StallError
		err := m.Run([]func(*TC){forever, forever})
		if !errors.As(err, &stall) || stall.Kind != StallEventBudget {
			t.Fatalf("run %d: got %v, want an event-budget StallError", i, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before 20 failed runs, %d after: abandoned threads leaked", before, after)
	}
}

// TestThreadPanicReachesCaller: a panic in workload code — here inside an
// elided critical section — comes out of Machine.Run on the caller's
// goroutine, where it can be recovered, and the other threads are unwound.
func TestThreadPanicReachesCaller(t *testing.T) {
	m := NewMachine(BaselineConfig(2, TLR, 1))
	a := m.Alloc.PaddedWord()
	l := m.NewLock()
	before := runtime.NumGoroutine()
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = m.Run([]func(*TC){
			func(tc *TC) {
				tc.Critical(l, func() {
					tc.Store(a, 1)
					panic("workload bug")
				})
			},
			func(tc *TC) {
				for {
					tc.Load(a)
				}
			},
		})
		return nil
	}()
	if got != "workload bug" {
		t.Fatalf("recovered %v from Run, want the workload's panic value", got)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the panicking run, %d after: threads leaked", before, after)
	}
}
