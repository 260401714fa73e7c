package litmus

import (
	"fmt"
	"strings"

	"tlrsim/internal/core"
	"tlrsim/internal/fault"
)

// Reproducer printer: any divergence is emitted as a minimal, ready-to-paste
// Go test against this package's exported API, so a protocol bug found by
// the enumerator becomes a committed regression test in one copy-paste.

// GoTest renders the divergence as a self-contained test function for
// package litmus. The emitted test pins the exact (program, scheme, seed,
// perturbation) that diverged and re-asserts outcome-set containment. It
// uses packages testing and proc, plus fault when the run injected faults
// and core when it ran a non-default contention policy. A divergence whose
// Perturb sets no jitter renders DefaultPerturb's, as Check runs it.
func (d Divergence) GoTest(name string) string {
	pt := d.Perturb.withDefaultJitter()
	var b strings.Builder
	fmt.Fprintf(&b, "// %s reproduces a litmus containment divergence found by the\n", name)
	fmt.Fprintf(&b, "// enumerator: %s\n", d.Prog)
	if d.Err != nil {
		fmt.Fprintf(&b, "// The run failed under %v seed %d: %v\n", d.Scheme, d.Seed, d.Err)
	} else {
		fmt.Fprintf(&b, "// Under %v seed %d the machine produced %q,\n", d.Scheme, d.Seed, d.Outcome)
		fmt.Fprintf(&b, "// which the lock-based reference set does not admit.\n")
	}
	fmt.Fprintf(&b, "func %s(t *testing.T) {\n", name)
	fmt.Fprintf(&b, "\tp := %s\n", d.Prog.GoLiteral("\t"))
	fmt.Fprintf(&b, "\tpt := Perturb{StartJitter: %d, ArbJitter: %d}\n", pt.StartJitter, pt.ArbJitter)
	faults, cm := pt.Faults != fault.Spec{}, pt.CM != core.CMTimestamp
	if faults || cm {
		b.WriteString("\tvar err error\n")
	}
	if faults {
		fmt.Fprintf(&b, "\tif pt.Faults, err = fault.ParseSpec(%q); err != nil {\n\t\tt.Fatal(err)\n\t}\n", pt.Faults.String())
	}
	if cm {
		fmt.Fprintf(&b, "\tif pt.CM, err = core.ParseCM(%q); err != nil {\n\t\tt.Fatal(err)\n\t}\n", pt.CM.String())
	}
	fmt.Fprintf(&b, "\tout, err := Run(p, proc.%s, %d, pt)\n", d.Scheme.Ident(), d.Seed)
	b.WriteString("\tif err != nil {\n\t\tt.Fatalf(\"run failed: %v\", err)\n\t}\n")
	b.WriteString("\tif escaped := CheckOutcomes(p, []string{out}); len(escaped) != 0 {\n")
	b.WriteString("\t\tt.Fatalf(\"elided outcome %q not in locked set %v\", escaped[0], ReferenceOutcomes(p))\n")
	b.WriteString("\t}\n")
	b.WriteString("}\n")
	return b.String()
}

// GoLiteral renders the program as Go source (indent prefixes continuation
// lines).
func (p Program) GoLiteral(indent string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Program{NumLocs: %d, Threads: []Thread{\n", p.NumLocs)
	for _, t := range p.Threads {
		b.WriteString(indent + "\t{Ops: []Op{")
		for j, o := range t.Ops {
			if j > 0 {
				b.WriteString(", ")
			}
			kind := "Load"
			if o.Kind == Store {
				kind = "Store"
			}
			fmt.Fprintf(&b, "{Kind: %s, Loc: %d}", kind, o.Loc)
		}
		b.WriteString("}")
		if t.HasCrit() {
			fmt.Fprintf(&b, ", CritLo: %d, CritHi: %d", t.CritLo, t.CritHi)
		}
		b.WriteString("},\n")
	}
	b.WriteString(indent + "}}")
	return b.String()
}
