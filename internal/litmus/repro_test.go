package litmus

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/proc"
)

func TestGoLiteralRendersProgram(t *testing.T) {
	p := Program{NumLocs: 2, Threads: []Thread{
		{Ops: []Op{{Load, 0}, {Store, 1}}, CritLo: 1, CritHi: 2},
		{Ops: []Op{{Store, 0}}},
	}}
	got := p.GoLiteral("")
	want := "Program{NumLocs: 2, Threads: []Thread{\n" +
		"\t{Ops: []Op{{Kind: Load, Loc: 0}, {Kind: Store, Loc: 1}}, CritLo: 1, CritHi: 2},\n" +
		"\t{Ops: []Op{{Kind: Store, Loc: 0}}},\n" +
		"}}"
	if got != want {
		t.Fatalf("GoLiteral =\n%s\nwant\n%s", got, want)
	}
}

func TestGoTestRendersErrorDivergence(t *testing.T) {
	// A run-failure divergence (deadlock, checker violation) renders with
	// the failure in the comment and the same re-run body.
	d := Divergence{
		Prog:   progSB(true),
		Scheme: proc.TLR,
		Seed:   5,
		Err:    errFake("checker: 1 violation(s)"),
	}
	src := d.GoTest("TestX")
	for _, frag := range []string{
		"// The run failed under BASE+SLE+TLR seed 5: checker: 1 violation(s)",
		"Run(p, proc.TLR, 5, pt)",
		"StartJitter: 300",
	} {
		if !strings.Contains(src, frag) {
			t.Fatalf("missing %q in:\n%s", frag, src)
		}
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }

func TestSchemeIdent(t *testing.T) {
	cases := map[proc.Scheme]string{
		proc.Base: "Base", proc.SLE: "SLE", proc.TLR: "TLR",
		proc.TLRStrictTS: "TLRStrictTS", proc.MCS: "MCS",
	}
	for s, want := range cases {
		if got := s.Ident(); got != want {
			t.Errorf("%v.Ident() = %q, want %q", s, got, want)
		}
	}
}

// A divergence found under injected faults and a non-default contention
// policy must replay under both: its reproducer re-parses the fault spec
// and the policy rather than running the default perturbation, and it
// parses as Go. The spec is rendered with Spec.String, so that must
// round-trip through fault.ParseSpec for every chaos configuration the
// sweeps run.
func TestGoTestRendersFaultsAndPolicy(t *testing.T) {
	for _, spec := range chaosFaults {
		fs, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := fault.ParseSpec(fs.String()); err != nil || back != fs {
			t.Errorf("%q: ParseSpec(%q) = %+v, %v; want %+v", spec, fs.String(), back, err, fs)
		}
		d := Divergence{
			Prog:    progSB(true),
			Scheme:  proc.SLE,
			Seed:    3,
			Outcome: "P0=[0] P1=[0] m=[1 9]",
			Perturb: Perturb{StartJitter: 40, ArbJitter: 7, Faults: fs, CM: core.CMKarma},
		}
		src := d.GoTest("TestX")
		for _, frag := range []string{
			"pt := Perturb{StartJitter: 40, ArbJitter: 7}",
			fmt.Sprintf("pt.Faults, err = fault.ParseSpec(%q)", fs.String()),
			`pt.CM, err = core.ParseCM("karma")`,
			"Run(p, proc.SLE, 3, pt)",
		} {
			if !strings.Contains(src, frag) {
				t.Fatalf("missing %q in:\n%s", frag, src)
			}
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "repro_test.go", "package litmus\n\n"+src, 0); err != nil {
			t.Fatalf("reproducer does not parse: %v\n%s", err, src)
		}
	}
}
