// Package stamp implements the globally-unique timestamps TLR uses for fair
// conflict resolution (paper §2.1.2).
//
// A timestamp has two components: a per-processor logical clock counting
// successful TLR executions, and the processor ID to break ties between
// clocks that happen to hold the same value. Earlier timestamp means higher
// priority; the contender with the earlier timestamp wins every conflict.
package stamp

import "fmt"

// Stamp is a TLR timestamp. The zero value is "no timestamp" (an
// un-timestamped request from outside any transaction); Valid distinguishes
// it because clock 0 on CPU 0 is a legitimate timestamp.
type Stamp struct {
	Clock uint64 // local logical clock at transaction start
	CPU   int    // tie-breaking processor ID
	Valid bool
}

// New returns a valid timestamp.
func New(clock uint64, cpu int) Stamp { return Stamp{Clock: clock, CPU: cpu, Valid: true} }

// None is the un-timestamped request marker. Per the paper (§2.2, last
// paragraph) such requests are treated as having the latest timestamp in the
// system, i.e. the lowest priority, so they can be deferred behind any
// transaction.
func None() Stamp { return Stamp{} }

// Before reports whether s has higher priority than o (strictly earlier
// timestamp). An invalid stamp is later than every valid stamp; two invalid
// stamps are unordered (Before returns false both ways).
func (s Stamp) Before(o Stamp) bool {
	switch {
	case !s.Valid:
		return false
	case !o.Valid:
		return true
	case s.Clock != o.Clock:
		return s.Clock < o.Clock
	default:
		return s.CPU < o.CPU
	}
}

// WrappedBefore compares two stamps whose clock fields are bits-wide
// wrapping counters (§2.1.2: fixed-size timestamps roll over without loss
// of TLR's properties). Clocks are compared in the half-window sense: a is
// earlier than b iff the forward distance from a to b is non-zero and less
// than half the window. The comparison is a strict total order whenever the
// live clock values span less than half the window — guaranteed in TLR
// because clocks stay loosely synchronised (each conflict observation pulls
// laggards forward).
func WrappedBefore(a, b Stamp, bits uint) bool {
	switch {
	case !a.Valid:
		return false
	case !b.Valid:
		return true
	}
	mask := uint64(1)<<bits - 1
	ac, bc := a.Clock&mask, b.Clock&mask
	if ac != bc {
		dist := (bc - ac) & mask
		return dist < uint64(1)<<(bits-1)
	}
	return a.CPU < b.CPU
}

// Equal reports component-wise equality.
func (s Stamp) Equal(o Stamp) bool { return s == o }

func (s Stamp) String() string {
	if !s.Valid {
		return "ts<none>"
	}
	return fmt.Sprintf("ts<%d.P%d>", s.Clock, s.CPU)
}

// Clock is the per-processor logical clock (§2.1.2). It is bumped only on a
// successful TLR execution — never on restart, which is what gives the
// starvation-freedom guarantee: a restarting processor keeps its position
// and eventually holds the earliest timestamp in the system.
type Clock struct {
	cpu     int
	value   uint64
	maxSeen uint64 // highest conflicting clock observed this transaction
	bits    uint   // 0 = unbounded; else the clock wraps at 2^bits
}

// SetBits bounds the clock to a bits-wide wrapping counter (hardware
// timestamps are fixed-size; comparisons then use WrappedBefore).
func (c *Clock) SetBits(bits uint) { c.bits = bits }

// NewClock returns a clock for processor cpu starting at 0.
func NewClock(cpu int) *Clock { return &Clock{cpu: cpu} }

// Current returns the timestamp all requests of the in-flight transaction
// carry: the clock value at transaction start.
func (c *Clock) Current() Stamp { return New(c.value, c.cpu) }

// Value returns the raw logical clock value.
func (c *Clock) Value() uint64 { return c.value }

// Observe records the clock component of a conflicting incoming request.
// On success the local clock jumps past the highest observed value, keeping
// the clocks loosely synchronised whenever a conflict is detected.
func (c *Clock) Observe(s Stamp) {
	if s.Valid && s.Clock > c.maxSeen {
		c.maxSeen = s.Clock
	}
}

// Reset rewinds the clock to its construction state (cpu identity and bit
// width are construction-time shape and survive).
func (c *Clock) Reset() { c.value, c.maxSeen = 0, 0 }

// Skew advances the clock by n without a successful transaction — fault
// injection's adversarial initial timestamp assignment. Any starting values
// are legal (timestamps only order conflicts, and Observe/Success re-sync
// clocks on contact); skewed CPUs simply start as persistent conflict
// losers. Wrapping clocks reduce the skew into their window.
func (c *Clock) Skew(n uint64) {
	if c.bits > 0 {
		n &= uint64(1)<<c.bits - 1
	}
	c.value += n
}

// Success advances the clock after a successful TLR execution: to one more
// than the previous value, or one more than the highest conflicting clock
// seen, whichever is larger (§2.1.2). Restarts must NOT call this.
func (c *Clock) Success() {
	next := c.value + 1
	if c.maxSeen+1 > next {
		next = c.maxSeen + 1
	}
	if c.bits > 0 {
		next &= uint64(1)<<c.bits - 1
	}
	c.value = next
	c.maxSeen = 0
}
