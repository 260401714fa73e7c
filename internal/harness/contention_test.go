package harness

import (
	"testing"

	"tlrsim/internal/core"
	"tlrsim/internal/proc"
)

// ContentionMatrix enumerates the policies itself, so Options.CM must not
// relabel any of its columns: with a non-default CM the report still equals
// the default one, timestamp column included.
func TestContentionMatrixIgnoresCM(t *testing.T) {
	o := opts()
	o.Ops = 0.05
	o.AppProcs = 4
	def, err := ContentionMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	o.CM = core.CMKarma
	karma, err := ContentionMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	if def.Report != karma.Report {
		t.Errorf("Options.CM = karma changed the matrix:\n--- default ---\n%s\n--- karma ---\n%s",
			def.Report, karma.Report)
	}
}

// The TLR-strict-ts scheme takes its contention policy from the scheme
// unless Options.CM names another one, which then replaces it (the §3.2
// relaxation stays off either way). This pins that column of Figure 9 under
// every policy.
func TestFig9StrictTSColumnUnderCM(t *testing.T) {
	want := []struct {
		cm             core.CM
		procs          int
		cycles, aborts uint64
	}{
		{core.CMTimestamp, 2, 11494, 5},
		{core.CMTimestamp, 4, 8112, 72},
		{core.CMStrictTS, 2, 11494, 5},
		{core.CMStrictTS, 4, 8112, 72},
		{core.CMRequesterWins, 2, 11531, 6},
		{core.CMRequesterWins, 4, 21022, 221},
		{core.CMBackoff, 2, 11645, 8},
		{core.CMBackoff, 4, 18403, 67},
		{core.CMKarma, 2, 11821, 7},
		{core.CMKarma, 4, 8860, 76},
	}
	results := make(map[core.CM]*Result)
	for _, w := range want {
		r, ok := results[w.cm]
		if !ok {
			o := DefaultOptions()
			o.Ops = 0.1
			o.Procs = []int{2, 4}
			o.CM = w.cm
			var err error
			if r, err = Fig9(o); err != nil {
				t.Fatal(err)
			}
			results[w.cm] = r
		}
		run := r.Get(proc.TLRStrictTS.String(), w.procs)
		if run.Cycles != w.cycles || run.Aborts != w.aborts {
			t.Errorf("cm=%v procs=%d: cycles=%d aborts=%d, want %d and %d",
				w.cm, w.procs, run.Cycles, run.Aborts, w.cycles, w.aborts)
		}
	}
}

// RestartPenaltySweep measures the strict-ts policy on its own points, so
// Options.CM must not replace it: the report is the default one under every
// policy.
func TestRestartPenaltySweepIgnoresCM(t *testing.T) {
	o := opts()
	o.Ops = 0.1
	o.AppProcs = 4
	def, err := RestartPenaltySweep(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range core.CMs() {
		o.CM = cm
		r, err := RestartPenaltySweep(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.Report != def.Report {
			t.Errorf("Options.CM = %v changed the sweep:\n--- default ---\n%s\n--- %v ---\n%s",
				cm, def.Report, cm, r.Report)
		}
	}
}
