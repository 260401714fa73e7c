//go:build !race

package litmus

// sweepMaxOps sets the exhaustive sweep's per-thread op bound. The full
// 3-op shape is 58,483 canonical programs and about a minute of single-core
// checking; under the race detector (see the race-tagged twin) that would
// be tens of minutes, so race builds check the 2-op shape instead.
const sweepMaxOps = 3
