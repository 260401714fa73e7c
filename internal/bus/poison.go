//go:build tlrpoison

package bus

// Poison is set by the tlrpoison build tag: pooled objects (bus
// transactions here, MSHRs in internal/coherence) are overwritten with
// impossible values when they return to their free list, so a use after
// release panics or changes an outcome instead of silently reading the old
// contents. Tests only; see nopoison.go for the normal build.
const Poison = true
