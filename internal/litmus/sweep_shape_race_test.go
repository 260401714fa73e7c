//go:build race

package litmus

// Race builds run the sweep on the 2-op shape: the race detector multiplies
// run cost by an order of magnitude, and the 3-op shape is already checked
// by the non-race tier-1 gate.
const sweepMaxOps = 2

// The race runtime adds allocations to a warm litmus run (17.7 measured
// against 14.7), so the warm-run ceiling moves with it.
const warmRunAllocCeiling = 19
