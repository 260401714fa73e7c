// Package fault is the deterministic fault-injection layer. It perturbs the
// simulated machine only along axes the architecture leaves unspecified —
// arbitration latency and order, NACK retry storms, speculative-resource
// capacity, initial logical-clock skew, and point-to-point message latency —
// so every injected schedule is one the protocol must already tolerate. A
// faulted run that breaks the checker, diverges from the litmus containment
// envelope, or stalls the forward-progress watchdog has therefore found a
// protocol bug, not an injection artifact.
//
// Determinism contract: the injector draws from its own splitmix64 stream
// seeded by Spec.Seed and never touches the kernel RNG, so enabling or
// disabling injection cannot perturb a clean run's schedule. A nil *Injector
// is the disabled state; every method is nil-safe and costs one pointer test
// (the same pattern as telemetry.Set), keeping the disabled hot paths
// allocation-free and byte-identical to the pre-fault goldens.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tlrsim/internal/core"
	"tlrsim/internal/sim"
)

// Spec declares which faults to inject and how hard. The zero value injects
// nothing. All probability fields are percentages in [0,100]; a Spec is a
// plain comparable value so machine configurations carrying one stay usable
// as pool keys.
type Spec struct {
	// Seed seeds the injector's private splitmix64 stream. Two runs with
	// the same (machine config, machine seed, fault spec) are identical;
	// varying Seed alone explores different fault schedules.
	Seed int64

	// GrantDelayPct delays a bus grant with this probability, by a uniform
	// 1..GrantDelayMax extra cycles. Arbitration latency is unspecified, so
	// any finite delay is a legal schedule.
	GrantDelayPct int
	GrantDelayMax uint64

	// ReorderPct makes the arbiter grant a uniformly random queued request
	// instead of the FIFO head. Requests are only globally ordered at
	// grant time, so any arbitration order is legal.
	ReorderPct int

	// NackPct force-NACKs an eligible remote data request (GetS/GetX with
	// a processor owner-of-record, the same condition under which the
	// owner itself may NACK). The requester's generic NACK-retry path
	// handles it: backoff, reissue, and ReasonResource escalation.
	NackPct int

	// AbortPct aborts an in-flight speculative region at an operation
	// boundary with AbortReason. Equivalent to an asynchronous deschedule
	// (§3.3): the engine restarts or falls back by its own policy.
	AbortPct    int
	AbortReason core.Reason

	// WBPct refuses a speculative write-buffer insert as if the buffer
	// were full, and VictimPct refuses a victim-cache spill as if the
	// victim were full — transient capacity pressure, indistinguishable
	// from smaller hardware. Both escalate through the existing
	// ReasonResource fallback path.
	WBPct     int
	VictimPct int

	// SkewMax gives each CPU a deterministic initial logical-clock skew in
	// [0, SkewMax], making some CPUs persistent early conflict losers.
	// Timestamps only order conflicts; any initial assignment is legal and
	// the fairness invariants must still hold.
	SkewMax uint64

	// MsgDelayPct delays a marker or probe delivery by 1..MsgDelayMax
	// extra cycles. Message latency is bounded but unspecified; the
	// protocol may not depend on marker/probe timing. (Outright loss is
	// not injected: markers gate probe forwarding with no retry, so a
	// lost marker manufactures a deadlock the protocol never promised to
	// survive. Loss-with-retry is what NackPct models.)
	MsgDelayPct int
	MsgDelayMax uint64

	// RestartCap, when >0, is applied as core.Policy.MaxRestarts on every
	// engine: after that many aborts of one attempt the engine falls back
	// to acquiring the lock regardless of abort reason. This is the
	// bounded-retries half of the degradation contract; abort storms
	// without it are free to retry indefinitely (termination then relies
	// on the storm being probabilistic).
	RestartCap int
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.GrantDelayPct > 0 || s.ReorderPct > 0 || s.NackPct > 0 ||
		s.AbortPct > 0 || s.WBPct > 0 || s.VictimPct > 0 ||
		s.SkewMax > 0 || s.MsgDelayPct > 0 || s.RestartCap > 0
}

// specKeys maps -faults keys to setters, shared by ParseSpec and String so
// the two stay in sync.
var reasonNames = map[string]core.Reason{
	"conflict":      core.ReasonConflict,
	"upgrade":       core.ReasonUpgrade,
	"probe":         core.ReasonProbe,
	"resource":      core.ReasonResource,
	"untimestamped": core.ReasonUntimestamped,
	"lockwrite":     core.ReasonLockWrite,
	"explicit":      core.ReasonExplicit,
}

// ParseSpec parses a -faults string: comma-separated key=value pairs.
//
//	grant=PCT[:MAX]   delayed bus grants (MAX extra cycles, default 50)
//	reorder=PCT       non-FIFO grant selection
//	nack=PCT          forced NACKs on eligible requests
//	abort=PCT[:REASON] forced speculative aborts (default reason conflict;
//	                  reasons: conflict upgrade probe resource untimestamped
//	                  lockwrite explicit)
//	wb=PCT            speculative write-buffer capacity pressure
//	victim=PCT        victim-cache capacity pressure
//	skew=MAX          per-CPU initial timestamp skew
//	msg=PCT[:MAX]     delayed marker/probe delivery (default MAX 50)
//	cap=N             fall back after N aborts of one attempt
//	seed=N            injector stream seed (also settable via Spec.Seed /
//	                  -fault-seed, which wins when both are given)
//
// An empty string parses to the zero Spec.
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: %q is not key=value", field)
		}
		val, arg, hasArg := strings.Cut(val, ":")
		if key == "seed" {
			sd, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad seed in %q: %v", field, err)
			}
			sp.Seed = sd
			continue
		}
		n, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad value in %q: %v", field, err)
		}
		pct := func() (int, error) {
			if n > 100 {
				return 0, fmt.Errorf("fault: %s=%d: percentage must be 0..100", key, n)
			}
			return int(n), nil
		}
		switch key {
		case "grant":
			if sp.GrantDelayPct, err = pct(); err != nil {
				return Spec{}, err
			}
			sp.GrantDelayMax = 50
			if hasArg {
				if sp.GrantDelayMax, err = strconv.ParseUint(arg, 10, 32); err != nil {
					return Spec{}, fmt.Errorf("fault: bad grant delay %q: %v", arg, err)
				}
			}
		case "reorder":
			if sp.ReorderPct, err = pct(); err != nil {
				return Spec{}, err
			}
		case "nack":
			if sp.NackPct, err = pct(); err != nil {
				return Spec{}, err
			}
		case "abort":
			if sp.AbortPct, err = pct(); err != nil {
				return Spec{}, err
			}
			sp.AbortReason = core.ReasonConflict
			if hasArg {
				r, ok := reasonNames[arg]
				if !ok {
					return Spec{}, fmt.Errorf("fault: unknown abort reason %q", arg)
				}
				sp.AbortReason = r
			}
		case "wb":
			if sp.WBPct, err = pct(); err != nil {
				return Spec{}, err
			}
		case "victim":
			if sp.VictimPct, err = pct(); err != nil {
				return Spec{}, err
			}
		case "skew":
			sp.SkewMax = n
		case "msg":
			if sp.MsgDelayPct, err = pct(); err != nil {
				return Spec{}, err
			}
			sp.MsgDelayMax = 50
			if hasArg {
				if sp.MsgDelayMax, err = strconv.ParseUint(arg, 10, 32); err != nil {
					return Spec{}, fmt.Errorf("fault: bad msg delay %q: %v", arg, err)
				}
			}
		case "cap":
			sp.RestartCap = int(n)
		default:
			return Spec{}, fmt.Errorf("fault: unknown key %q (want grant/reorder/nack/abort/wb/victim/skew/msg/cap/seed)", key)
		}
	}
	return sp, nil
}

// String renders the spec in ParseSpec's syntax (round-trippable, so a
// rendered spec — e.g. in a stall report's reproducer — reconstructs the
// exact injection stream, seed included); the zero spec renders as "".
func (s Spec) String() string {
	var parts []string
	add := func(f string, args ...any) { parts = append(parts, fmt.Sprintf(f, args...)) }
	if s.GrantDelayPct > 0 {
		add("grant=%d:%d", s.GrantDelayPct, s.GrantDelayMax)
	}
	if s.ReorderPct > 0 {
		add("reorder=%d", s.ReorderPct)
	}
	if s.NackPct > 0 {
		add("nack=%d", s.NackPct)
	}
	if s.AbortPct > 0 {
		name := "conflict"
		for k, v := range reasonNames {
			if v == s.AbortReason {
				name = k
			}
		}
		add("abort=%d:%s", s.AbortPct, name)
	}
	if s.WBPct > 0 {
		add("wb=%d", s.WBPct)
	}
	if s.VictimPct > 0 {
		add("victim=%d", s.VictimPct)
	}
	if s.SkewMax > 0 {
		add("skew=%d", s.SkewMax)
	}
	if s.MsgDelayPct > 0 {
		add("msg=%d:%d", s.MsgDelayPct, s.MsgDelayMax)
	}
	if s.RestartCap > 0 {
		add("cap=%d", s.RestartCap)
	}
	if s.Seed != 0 {
		add("seed=%d", s.Seed)
	}
	return strings.Join(parts, ",")
}

// Stats counts what was actually injected, per fault axis.
type Stats struct {
	GrantDelays uint64
	Reorders    uint64
	Nacks       uint64
	Aborts      uint64
	WBRefusals  uint64
	VictimFulls uint64
	MsgDelays   uint64
}

// String renders the non-zero counters, sorted by axis name.
func (st Stats) String() string {
	pairs := []struct {
		name string
		n    uint64
	}{
		{"aborts", st.Aborts}, {"grant-delays", st.GrantDelays},
		{"msg-delays", st.MsgDelays}, {"nacks", st.Nacks},
		{"reorders", st.Reorders}, {"victim-fulls", st.VictimFulls},
		{"wb-refusals", st.WBRefusals},
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].name < pairs[j].name })
	var parts []string
	for _, p := range pairs {
		if p.n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", p.name, p.n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Injector draws fault decisions from a private deterministic stream. The
// nil injector is the disabled state: every method is nil-safe and injects
// nothing.
type Injector struct {
	spec  Spec
	rng   uint64
	stats Stats
}

// New returns an injector for spec, or nil when the spec injects nothing —
// callers store and pass the nil freely.
func New(spec Spec) *Injector {
	if !spec.Enabled() {
		return nil
	}
	in := &Injector{spec: spec}
	in.Reset()
	return in
}

// Reset rewinds the injector to its initial state (stream position and
// stats), so a reused machine replays the identical fault schedule.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	// splitmix64 of the seed decorrelates neighbouring seeds.
	in.rng = sim.Mix64(uint64(in.spec.Seed) ^ 0x9e3779b97f4a7c15)
	in.stats = Stats{}
}

// Spec returns the spec the injector was built from (zero for nil).
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// Stats returns the injection counters so far (zero for nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// next advances the splitmix64 stream.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	return sim.Mix64(in.rng)
}

// roll returns true with probability pct/100, consuming one draw (none for
// pct<=0, so axes left disabled never perturb the stream).
func (in *Injector) roll(pct int) bool {
	if pct <= 0 {
		return false
	}
	return in.next()%100 < uint64(pct)
}

// GrantDelay returns extra cycles to add to the next bus grant (0 = none).
func (in *Injector) GrantDelay() uint64 {
	if in == nil || !in.roll(in.spec.GrantDelayPct) {
		return 0
	}
	in.stats.GrantDelays++
	if in.spec.GrantDelayMax <= 1 {
		return 1
	}
	return 1 + in.next()%in.spec.GrantDelayMax
}

// PickGrant returns the queue index the arbiter should grant, given n queued
// requests (0 = FIFO head, the untouched default).
func (in *Injector) PickGrant(n int) int {
	if in == nil || n <= 1 || !in.roll(in.spec.ReorderPct) {
		return 0
	}
	i := int(in.next() % uint64(n))
	if i != 0 {
		in.stats.Reorders++
	}
	return i
}

// ForceNack reports whether to NACK an eligible request the owner would
// otherwise have serviced.
func (in *Injector) ForceNack() bool {
	if in == nil || !in.roll(in.spec.NackPct) {
		return false
	}
	in.stats.Nacks++
	return true
}

// ForceAbort reports whether to abort the in-flight speculative region at
// this operation boundary, and with which reason.
func (in *Injector) ForceAbort() (core.Reason, bool) {
	if in == nil || !in.roll(in.spec.AbortPct) {
		return core.ReasonNone, false
	}
	in.stats.Aborts++
	r := in.spec.AbortReason
	if r == core.ReasonNone {
		r = core.ReasonConflict
	}
	return r, true
}

// RefuseWB reports whether to treat this speculative write-buffer insert as
// a capacity overflow.
func (in *Injector) RefuseWB() bool {
	if in == nil || !in.roll(in.spec.WBPct) {
		return false
	}
	in.stats.WBRefusals++
	return true
}

// RefuseVictim reports whether to treat the victim cache as full for this
// spill.
func (in *Injector) RefuseVictim() bool {
	if in == nil || !in.roll(in.spec.VictimPct) {
		return false
	}
	in.stats.VictimFulls++
	return true
}

// StampSkew returns cpu's initial logical-clock skew. It is a pure hash of
// (seed, cpu) — no stream draw — so skew is identical however construction
// and reset interleave with other axes.
func (in *Injector) StampSkew(cpu int) uint64 {
	if in == nil || in.spec.SkewMax == 0 {
		return 0
	}
	return sim.Mix64(uint64(in.spec.Seed)*0x100000001b3+uint64(cpu)) % (in.spec.SkewMax + 1)
}

// MsgDelay returns extra cycles to add to a marker or probe delivery.
func (in *Injector) MsgDelay() uint64 {
	if in == nil || !in.roll(in.spec.MsgDelayPct) {
		return 0
	}
	in.stats.MsgDelays++
	if in.spec.MsgDelayMax <= 1 {
		return 1
	}
	return 1 + in.next()%in.spec.MsgDelayMax
}
