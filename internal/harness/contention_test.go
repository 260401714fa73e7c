package harness

import (
	"testing"

	"tlrsim/internal/core"
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
