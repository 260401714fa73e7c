package sim

import "testing"

// TestBackoffCurve pins the shared retry curve: the n-th retry waits in
// [base<<(n-1), 2*base<<(n-1)), the shift plateaus at maxShift, and the
// jitter is Mix64(key) modulo the delay.
func TestBackoffCurve(t *testing.T) {
	const base, maxShift = 16, 3
	for n := 1; n <= maxShift+3; n++ {
		shift := uint(n - 1)
		if shift > maxShift {
			shift = maxShift
		}
		lo := uint64(base) << shift
		for key := uint64(0); key < 64; key++ {
			d := Backoff(base, maxShift, n, key)
			if d != lo+Mix64(key)%lo {
				t.Fatalf("n=%d key=%d: delay %d, want %d+%d", n, key, d, lo, Mix64(key)%lo)
			}
		}
	}
}
