package workloads

import (
	"testing"

	"tlrsim/internal/proc"
)

// TestMP3DWriteBackSupplyKeepsSharers pins the mp3d coherence violation of a
// GetS served from a pending write-back. mp3d's lock i and cell i are 128 KiB
// apart, so they share an L1 set: an owner evicts a lock line that other CPUs
// still hold Shared, and the dirty data waits in its write-back buffer. A
// reader's GetS then names the evicting CPU as supplier, and a reply that
// ignored the bus's shared verdict installed Exclusive beside the Shared
// copies ("line ... writable alongside other copies"). Both cases are the
// mp3d points of `tlrsim -experiment fig11` that failed: `-ops 1 -app-procs
// 8 -seed 2` (BASE+SLE) and `-ops 4 -app-procs 4 -seed 12` (BASE+SLE+TLR).
func TestMP3DWriteBackSupplyKeepsSharers(t *testing.T) {
	cases := []struct {
		name   string
		procs  int
		scheme proc.Scheme
		seed   int64
		steps  int // harness.AppSet's mp3d: 3072 steps per -ops unit
	}{
		{"fig11-ops1-procs8-seed2", 8, proc.SLE, 2, 3072},
		{"fig11-ops4-procs4-seed12", 4, proc.TLR, 12, 4 * 3072},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &MP3D{Steps: tc.steps, Cells: 2048, Work: 60}
			if _, err := Run(proc.BaselineConfig(tc.procs, tc.scheme, tc.seed), w); err != nil {
				t.Fatal(err)
			}
		})
	}
}
