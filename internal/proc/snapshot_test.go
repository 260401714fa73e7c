package proc

import (
	"io"
	"testing"

	"tlrsim/internal/memsys"
	"tlrsim/internal/trace"
)

// Reset equivalence gate: a machine dirtied by a run under another seed and
// any scheme, then rewound by Reset, must run EXACTLY as a freshly constructed
// machine would — same observed values at every load, same final memory,
// same clock, same kernel event count, same per-CPU and engine stats. Any
// piece of machine state Reset fails to rewind (cache contents, predictor
// tables, RNG position, engine clocks, L2 presence, store-buffer metadata)
// shows up here as a divergence.

// snapCfg is the machine the equivalence tests run: small enough to be
// quick, big enough to exercise caches, bus, predictors, and elision.
func snapCfg(scheme Scheme, seed int64) Config {
	cfg := BaselineConfig(4, scheme, seed)
	cfg.MaxEvents = 50_000_000
	return cfg
}

// phaseProg returns a thread body that increments ctr under lock iters
// times; when rec is non-nil, the committed counter value observed after
// each critical section is appended (a fingerprint of the interleaving).
func phaseProg(lock *Lock, ctr memsys.Addr, iters int, rec *[]uint64) func(*TC) {
	return func(tc *TC) {
		for i := 0; i < iters; i++ {
			tc.Critical(lock, func() {
				tc.Store(ctr, tc.Load(ctr)+1)
			})
			if rec != nil {
				*rec = append(*rec, tc.Load(ctr))
			}
		}
	}
}

// runPhase runs one contended-counter phase on m and fails the test on any
// error.
func runPhase(t *testing.T, m *Machine, lock *Lock, ctr memsys.Addr, iters int, recs [][]uint64) {
	t.Helper()
	progs := make([]func(*TC), len(m.CPUs))
	for i := range progs {
		var rec *[]uint64
		if recs != nil {
			rec = &recs[i]
		}
		progs[i] = phaseProg(lock, ctr, iters, rec)
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckerErr(); err != nil {
		t.Fatal(err)
	}
}

// assertSameContinuation compares every observable the two runs produced.
func assertSameContinuation(t *testing.T, want, got *Machine, ctr memsys.Addr, wantRec, gotRec [][]uint64) {
	t.Helper()
	if w, g := want.Sys.ArchWord(ctr), got.Sys.ArchWord(ctr); w != g {
		t.Errorf("final counter: fresh %d, reset %d", w, g)
	}
	if w, g := want.Cycles(), got.Cycles(); w != g {
		t.Errorf("cycles: fresh %d, reset %d", w, g)
	}
	if w, g := want.K.Fired(), got.K.Fired(); w != g {
		t.Errorf("kernel events fired: fresh %d, reset %d", w, g)
	}
	for i := range wantRec {
		w, g := wantRec[i], gotRec[i]
		if len(w) != len(g) {
			t.Fatalf("cpu %d: recorded %d values fresh, %d reset", i, len(w), len(g))
		}
		for k := range w {
			if w[k] != g[k] {
				t.Fatalf("cpu %d load %d: fresh saw %d, reset saw %d", i, k, w[k], g[k])
			}
		}
	}
	for i := range want.CPUs {
		if w, g := want.CPUs[i].stats, got.CPUs[i].stats; w != g {
			t.Errorf("cpu %d stats: fresh %+v, reset %+v", i, w, g)
		}
		if w, g := want.CPUs[i].eng.Stats(), got.CPUs[i].eng.Stats(); *w != *g {
			t.Errorf("cpu %d engine stats: fresh %+v, reset %+v", i, *w, *g)
		}
	}
}

func TestResetMatchesFresh(t *testing.T) {
	const dirtyIters, iters = 30, 40
	// Each dirtying scheme leaves different state behind: SLE trains the
	// elision predictor down, the TLR variants advance engine clocks, every
	// scheme fills caches, the L2 and the RNG.
	dirtySchemes := []Scheme{Base, SLE, TLR, TLRStrictTS}
	for _, scheme := range []Scheme{Base, SLE, TLR} {
		for _, seed := range []int64{1, 2, 42} {
			cfg := snapCfg(scheme, seed)

			ref := NewMachine(cfg)
			lockR := ref.NewLock()
			ctrR := ref.Alloc.PaddedWord()
			refRec := make([][]uint64, len(ref.CPUs))
			runPhase(t, ref, lockR, ctrR, iters, refRec)

			for _, dirty := range dirtySchemes {
				warm := NewMachine(snapCfg(dirty, seed+100))
				runPhase(t, warm, warm.NewLock(), warm.Alloc.PaddedWord(), dirtyIters, nil)
				if err := warm.Reset(cfg); err != nil {
					t.Fatalf("%v seed %d after %v: %v", scheme, seed, dirty, err)
				}
				lockW := warm.NewLock()
				ctrW := warm.Alloc.PaddedWord()
				if lockW.ID != lockR.ID || ctrW != ctrR {
					t.Fatalf("%v seed %d after %v: reset machine allocated lock %d at %v, fresh lock %d at %v",
						scheme, seed, dirty, lockW.ID, ctrW, lockR.ID, ctrR)
				}
				warmRec := make([][]uint64, len(warm.CPUs))
				runPhase(t, warm, lockW, ctrW, iters, warmRec)

				assertSameContinuation(t, ref, warm, ctrR, refRec, warmRec)
				if t.Failed() {
					t.Fatalf("%v seed %d: machine reset after a %v run diverged from a fresh one", scheme, seed, dirty)
				}
			}
		}
	}
}

// Reset refuses what it cannot rewind exactly, and a refused machine is left
// as it was.
func TestResetRefusals(t *testing.T) {
	cfg := snapCfg(TLR, 1)

	m := NewMachine(cfg)
	bad := cfg
	bad.Procs = 8
	if err := m.Reset(bad); err == nil {
		t.Error("Reset accepted a shape-changing config")
	}

	sinkCfg := cfg
	sinkCfg.TraceSink = trace.NewJSONLWriter(io.Discard)
	if err := NewMachine(sinkCfg).Reset(cfg); err == nil {
		t.Error("Reset accepted a machine with a trace sink attached")
	}
	if err := m.Reset(sinkCfg); err == nil {
		t.Error("Reset accepted a config with a trace sink attached")
	}

	// An event-budget failure leaves threads blocked mid-run and events
	// pending: such a machine must be discarded, not recycled.
	short := cfg
	short.MaxEvents = 2_000
	stuck := NewMachine(short)
	lock := stuck.NewLock()
	ctr := stuck.Alloc.PaddedWord()
	progs := make([]func(*TC), len(stuck.CPUs))
	for i := range progs {
		progs[i] = phaseProg(lock, ctr, 1000, nil)
	}
	if err := stuck.Run(progs); err == nil {
		t.Fatal("run within a 2000-event budget completed; the refusal case needs it to fail")
	}
	if err := stuck.Reset(short); err == nil {
		t.Error("Reset accepted a machine left mid-run by an event-budget failure")
	}
}
