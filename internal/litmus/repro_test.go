package litmus

import (
	"strings"
	"testing"

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
