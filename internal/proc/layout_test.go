package proc

import (
	"testing"
	"unsafe"
)

// TestOpLayout pins the op's size: every operation is written once into its
// CPU's curOp slot and read there in place, and at 64 bytes or less that
// write is a few stores. A field that grows it past 64 bytes fails here.
func TestOpLayout(t *testing.T) {
	n := unsafe.Sizeof(op{})
	if n > 64 {
		t.Fatalf("op is %d bytes, want <= 64", n)
	}
	t.Logf("op is %d bytes", n)
}
