//go:build race

package litmus

// Race builds run the sweep on the 2-op shape: the race detector multiplies
// run cost by an order of magnitude, and the 3-op shape is already checked
// by the non-race tier-1 gate.
const sweepMaxOps = 2
