package coherence

import (
	"testing"

	"tlrsim/internal/cache"
	"tlrsim/internal/core"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
)

// specStore issues a speculative (transactional) store; it completes in the
// same event (write-buffer insert), with the exclusive request in flight.
func specStore(t *testing.T, c *Controller, a memsys.Addr, v uint64) {
	t.Helper()
	fired := false
	c.Store(a, v, rec.sink, rec.then(func(_ uint64, ok bool) { fired = true }))
	if !fired {
		t.Fatalf("speculative store should complete immediately")
	}
}

func begin(c *Controller) { c.Engine().EnterCritical(true) }

// asyncCommit starts a commit and returns a poll function.
func asyncCommit(c *Controller) (done *bool, ok *bool) {
	done, ok = new(bool), new(bool)
	c.TryCommit(rec.sink, rec.then(func(_ uint64, o bool) { *done, *ok = true, o }))
	return
}

const (
	lineA = memsys.Addr(0x1000)
	lineB = memsys.Addr(0x2000)
)

// TestDeferralResolvesConflict reproduces Figure 4: two processors write
// lines A and B in opposite orders inside transactions. The earlier
// timestamp (P0) retains both blocks and commits without restarting; P1
// restarts once, and both finish with correct data.
func TestDeferralResolvesConflict(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	p0, p1 := s.Ctrls[0], s.Ctrls[1]

	begin(p0)
	begin(p1)
	specStore(t, p0, lineA, 100) // P0: A first
	specStore(t, p1, lineB, 200) // P1: B first
	k.RunUntil(s.Quiescent)      // both own their first line

	if stateOf(p0, lineA) != cache.Exclusive && stateOf(p0, lineA) != cache.Modified {
		t.Fatalf("P0 should own A, state %v", stateOf(p0, lineA))
	}

	// Now the crossing writes.
	specStore(t, p0, lineB, 101)
	specStore(t, p1, lineA, 201)

	d0, ok0 := asyncCommit(p0)
	k.RunUntil(func() bool { return *d0 })
	if !*ok0 {
		t.Fatal("P0 (earlier timestamp) must commit")
	}
	if p0.Engine().Stats().TotalAborts() != 0 {
		t.Fatal("P0 must not restart")
	}
	if p1.Engine().Stats().AbortsFor(core.ReasonConflict) != 1 {
		t.Fatalf("P1 should restart exactly once on conflict, aborts %v", p1.Engine().Stats().Aborts)
	}
	if p0.Engine().Stats().Deferrals != 1 {
		t.Fatalf("P0 should have deferred P1's request, deferrals = %d", p0.Engine().Stats().Deferrals)
	}

	// P1 re-executes its transaction (same timestamp) and must now succeed.
	p1.Engine().AckAbort()
	begin(p1)
	specStore(t, p1, lineB, 210)
	specStore(t, p1, lineA, 211)
	d1, ok1 := asyncCommit(p1)
	k.RunUntil(func() bool { return *d1 })
	if !*ok1 {
		t.Fatal("P1 retry must commit")
	}
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(lineA); v != 211 {
		t.Fatalf("A = %d, want 211", v)
	}
	if v := s.ArchWord(lineB); v != 210 {
		t.Fatalf("B = %d, want 210", v)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestFailureAtomicity: an aborted transaction's stores never become
// architecturally visible.
func TestFailureAtomicity(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	p0 := s.Ctrls[0]
	s.Mem.WriteWord(lineA, 7)
	begin(p0)
	specStore(t, p0, lineA, 666)
	k.RunUntil(s.Quiescent)
	p0.AbortTxn(core.ReasonExplicit)
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(lineA); v != 7 {
		t.Fatalf("aborted store leaked: A = %d, want 7", v)
	}
	if p0.WriteBufferLines() != 0 {
		t.Fatal("write buffer not discarded")
	}
}

// TestAtomicCommitVisibility: speculative stores are invisible to other
// processors before commit and visible after.
func TestAtomicCommitVisibility(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	s.Mem.WriteWord(lineA, 1)
	s.Mem.WriteWord(lineA+8, 2)

	begin(p0)
	specStore(t, p0, lineA, 11)
	specStore(t, p0, lineA+8, 12)
	k.RunUntil(s.Quiescent)

	// P1 reads outside any transaction: its un-timestamped request is
	// deferred behind P0's transaction (§2.2's second policy), so the value
	// it finally receives is post-commit — it can never observe the partial
	// state {11, 2}.
	var got uint64
	fired := false
	p1.Load(lineA, false, rec.sink, rec.then(func(v uint64, ok bool) { got, fired = v, true }))

	d0, ok0 := asyncCommit(p0)
	k.RunUntil(func() bool { return *d0 && fired })
	if !*ok0 {
		t.Fatal("commit failed")
	}
	if got != 11 {
		t.Fatalf("P1 observed %d; only the committed value 11 is legal", got)
	}
	if v := load(t, k, p1, lineA+8); v != 12 {
		t.Fatalf("second word = %d, want 12", v)
	}
}

// TestUntimestampedAbortPolicy: with the abort-on-data-race policy the
// transaction restarts instead of deferring the plain access.
func TestUntimestampedAbortPolicy(t *testing.T) {
	pol := core.Policy{EnableTLR: true, AbortOnUntimestamped: true}
	k, s := rig(2, pol)
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	begin(p0)
	specStore(t, p0, lineA, 11)
	k.RunUntil(s.Quiescent)
	store(t, k, p1, lineA, 5) // plain conflicting store
	if p0.Engine().Stats().AbortsFor(core.ReasonUntimestamped) != 1 {
		t.Fatalf("expected untimestamped abort, stats %v", p0.Engine().Stats().Aborts)
	}
	if v := s.ArchWord(lineA); v != 5 {
		t.Fatalf("A = %d, want 5", v)
	}
}

// TestQueuedTransfer reproduces Figure 7: four processors write the same
// line inside transactions. A hardware queue forms on the data itself; no
// transaction restarts; each processor pays one miss.
func TestQueuedTransfer(t *testing.T) {
	k, s := rig(4, core.Policy{EnableTLR: true})
	commits := make([]*bool, 4)
	for i, c := range s.Ctrls {
		d := new(bool)
		commits[i] = d
		// Stagger the starts by a few cycles so the requests are all in
		// flight together, forming the P0 <- P1 <- P2 <- P3 chain of
		// Figure 7 before any data has arrived.
		k.At(sim.Time(i*3), func() {
			begin(c)
			specStore(t, c, lineA, uint64(1000+i))
			c.TryCommit(rec.sink, rec.then(func(_ uint64, ok bool) { *d = ok }))
		})
	}
	k.RunUntil(func() bool { return *commits[0] && *commits[1] && *commits[2] && *commits[3] })
	for i, c := range s.Ctrls {
		if c.Engine().Stats().TotalAborts() != 0 {
			t.Fatalf("P%d restarted; queue should form without restarts (aborts %v)", i, c.Engine().Stats().Aborts)
		}
		if c.Engine().Stats().Commits != 1 {
			t.Fatalf("P%d commits = %d", i, c.Engine().Stats().Commits)
		}
		if c.Stats().Misses != 1 {
			t.Fatalf("P%d misses = %d, want exactly 1", i, c.Stats().Misses)
		}
	}
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(lineA); v != 1003 {
		t.Fatalf("final value = %d, want 1003 (last in chain)", v)
	}
}

// TestMarkerProbeBreaksCycle reproduces Figure 6: three processors form a
// wait cycle across two blocks that only the marker/probe machinery can
// break. Priorities P0 > P1 > P2 (by CPU id at equal clocks).
func TestMarkerProbeBreaksCycle(t *testing.T) {
	pol := core.Policy{EnableTLR: true, CM: core.CMStrictTS} // the relaxation would legitimately avoid the cycle
	k, s := rig(3, pol)
	p0, p1, p2 := s.Ctrls[0], s.Ctrls[1], s.Ctrls[2]

	// Setup: P0 owns A speculatively, P1 owns B speculatively.
	begin(p0)
	begin(p1)
	begin(p2)
	specStore(t, p0, lineA, 1)
	specStore(t, p1, lineB, 2)
	k.RunUntil(s.Quiescent)

	// t1: P1 requests A -> P0 defers (P0 wins); P1 becomes pending owner.
	specStore(t, p1, lineA, 3)
	k.RunUntil(func() bool { return p0.Engine().Stats().Deferrals == 1 })

	// t2: P2 requests B -> P1 owns B data, wins, defers; P2 pending owner.
	specStore(t, p2, lineB, 4)
	k.RunUntil(func() bool { return p1.Engine().Stats().Deferrals == 1 })

	// t3: P0 requests B -> forwarded to pending owner P2, which loses but
	// has no data: it probes upstream (P1), which loses to P0 and releases.
	specStore(t, p0, lineB, 5)
	d0, ok0 := asyncCommit(p0)
	k.RunUntil(func() bool { return *d0 })
	if !*ok0 {
		t.Fatal("P0 must commit — the cycle was not broken")
	}
	if p0.Engine().Stats().TotalAborts() != 0 {
		t.Fatal("P0 (highest priority) must never restart")
	}
	if p1.Engine().Stats().AbortsFor(core.ReasonProbe) != 1 {
		t.Fatalf("P1 should be restarted by a probe, aborts %v", p1.Engine().Stats().Aborts)
	}
	if s.Bus.Stats().Probes == 0 {
		t.Fatal("no probe was ever sent")
	}
	if s.Bus.Stats().Markers == 0 {
		t.Fatal("no marker was ever sent")
	}
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(lineB); v != 5 {
		t.Fatalf("B = %d, want P0's 5", v)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestProbeThroughPlainPendingOwner reproduces the Figure 6 cycle with a
// plain (non-transactional) access as the middle link — the shape the
// litmus enumerator found deadlocking at three CPUs. P0 spec-owns A and
// defers P1's request; P1 spec-owns B and defers P2's PLAIN store
// (untimestamped requests are deferred as carrying the latest timestamp in
// the system), making P2 the pending owner of record for B with no
// transaction and no timestamp. P0 then requests B and chains behind P2.
// P2 cannot resolve the conflict itself; it must forward P0's probe
// upstream so the data holder P1 re-resolves against the real timestamp:
// P1 loses, B drains through P2 to P0, and P0 commits. Without the
// forwarding, P1 waits on P0 (its A-miss is deferred) while P0 waits on P1
// (through the chain at P2) — deadlock.
func TestProbeThroughPlainPendingOwner(t *testing.T) {
	pol := core.Policy{EnableTLR: true, CM: core.CMStrictTS} // the relaxation would legitimately avoid the cycle
	k, s := rig(3, pol)
	p0, p1, p2 := s.Ctrls[0], s.Ctrls[1], s.Ctrls[2]

	begin(p0)
	begin(p1)
	specStore(t, p0, lineA, 1)
	specStore(t, p1, lineB, 2)
	k.RunUntil(s.Quiescent)

	// P1 requests A -> P0 (earlier) defers; P1 is blocked on its miss.
	specStore(t, p1, lineA, 3)
	k.RunUntil(func() bool { return p0.Engine().Stats().Deferrals == 1 })

	// P2 plain-stores B -> P1 defers the untimestamped request; P2 becomes
	// pending owner of record.
	p2done := false
	p2.Store(lineB, 4, rec.sink, rec.then(func(_ uint64, _ bool) { p2done = true }))
	k.RunUntil(func() bool { return p1.Engine().Stats().Deferrals == 1 })

	// P0 requests B -> chains behind P2, which forwards the probe to P1.
	specStore(t, p0, lineB, 5)
	d0, ok0 := asyncCommit(p0)
	k.RunUntil(func() bool { return *d0 })
	if !*ok0 {
		t.Fatal("P0 must commit — the cycle was not broken")
	}
	if p0.Engine().Stats().TotalAborts() != 0 {
		t.Fatal("P0 (earliest timestamp) must never restart")
	}
	if p1.Engine().Stats().AbortsFor(core.ReasonProbe) != 1 {
		t.Fatalf("P1 should be restarted by a probe, aborts %v", p1.Engine().Stats().Aborts)
	}
	k.RunUntil(func() bool { return p2done })
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(lineB); v != 5 {
		t.Fatalf("B = %d, want 5 (P0's commit orders after P2's plain store)", v)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleBlockRelaxationAvoidsRestart (§3.2 / Figure 9's TLR vs
// TLR-strict-ts gap): when one block is the only contention point, the
// later-timestamp holder may keep it even against an earlier request.
func TestSingleBlockRelaxationAvoidsRestart(t *testing.T) {
	run := func(strict bool) (lateAborts uint64) {
		pol := core.Policy{EnableTLR: true}
		if strict {
			pol.CM = core.CMStrictTS
		}
		k, s := rig(2, pol)
		p0, p1 := s.Ctrls[0], s.Ctrls[1]
		// Make P1 hold the block; P0 (earlier stamp: id 0) then requests.
		begin(p1)
		specStore(t, p1, lineA, 1)
		k.RunUntil(s.Quiescent)
		begin(p0)
		specStore(t, p0, lineA, 2)
		// Let P0's conflicting request reach P1 before P1 tries to commit.
		k.RunUntil(func() bool {
			return p1.Engine().Stats().Deferrals == 1 || p1.Engine().Aborted()
		})
		if p1.Engine().Aborted() {
			// Strict outcome: P1 lost and restarted.
			d0, _ := asyncCommit(p0)
			k.RunUntil(func() bool { return *d0 })
			return p1.Engine().Stats().TotalAborts()
		}
		// Relaxed outcome: P1 deferred P0 despite P0's earlier stamp.
		d1, ok1 := asyncCommit(p1)
		k.RunUntil(func() bool { return *d1 })
		if !*ok1 {
			t.Fatal("relaxed holder should commit")
		}
		d0, _ := asyncCommit(p0)
		k.RunUntil(func() bool { return *d0 })
		return p1.Engine().Stats().TotalAborts()
	}
	if aborts := run(false); aborts != 0 {
		t.Fatalf("relaxed: later holder restarted %d times, want 0", aborts)
	}
	if aborts := run(true); aborts == 0 {
		t.Fatal("strict: later holder should have restarted at least once")
	}
}

// TestUpgradeInducedMisspeculation (§3.1.2): a transaction holding a block
// only in shared state cannot defer an external writer and must restart.
func TestUpgradeInducedMisspeculation(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	s.Mem.WriteWord(lineA, 3)
	load(t, k, p1, lineA) // P1: E
	load(t, k, p0, lineA) // P0: S, P1: O
	begin(p0)
	if v := load(t, k, p0, lineA); v != 3 {
		t.Fatal("spec read wrong value")
	}
	store(t, k, p1, lineA, 4) // upgrade, invalidates P0's read set
	if p0.Engine().Stats().AbortsFor(core.ReasonUpgrade) != 1 {
		t.Fatalf("expected upgrade abort, stats %v", p0.Engine().Stats().Aborts)
	}
	// After enough violations the engine requests the line exclusively.
	p0.Engine().AckAbort()
	begin(p0)
	load(t, k, p0, lineA)
	p0.AbortTxn(core.ReasonUpgrade) // second synthetic violation path
	_ = p0.Engine().NoteUpgradeViolation(lineA)
	p0.Engine().AckAbort()
	if !p0.Engine().WantExclusiveRead(lineA) {
		t.Fatal("escalation to exclusive reads expected")
	}
}

// TestResourceOverflowForcesServiceable: write-buffer overflow aborts with
// ReasonResource so the CPU can fall back to real locking (§3.3).
func TestResourceOverflowAborts(t *testing.T) {
	k := sim.New(1)
	cfg := testConfig()
	cfg.WriteBufferLines = 2
	engines := []*core.Engine{core.NewEngine(0, core.Policy{EnableTLR: true})}
	s := NewSystem(k, 1, cfg, engines)
	p0 := s.Ctrls[0]
	begin(p0)
	specStore(t, p0, 0x100, 1)
	specStore(t, p0, 0x200, 2)
	fired, okv := false, true
	p0.Store(0x300, 3, rec.sink, rec.then(func(_ uint64, ok bool) { fired, okv = true, ok }))
	if !fired || okv {
		t.Fatal("third line store should be squashed by overflow")
	}
	if p0.Engine().Stats().AbortsFor(core.ReasonResource) != 1 {
		t.Fatalf("expected resource abort, stats %v", p0.Engine().Stats().Aborts)
	}
	if !p0.Engine().ShouldFallback(core.ReasonResource) {
		t.Fatal("resource abort must trigger lock fallback")
	}
	k.RunUntil(s.Quiescent)
}

// TestDeferredGetSKeepsOwnership: a read of a speculatively written block is
// deferred without giving up the block, and the reader sees post-commit data
// in a Shared copy (the owner kept one, so Exclusive would be a second
// writable copy).
func TestDeferredGetSKeepsOwnership(t *testing.T) {
	k, s := rig(2, core.Policy{EnableTLR: true})
	p0, p1 := s.Ctrls[0], s.Ctrls[1]
	s.Mem.WriteWord(lineA, 1)
	begin(p0)
	specStore(t, p0, lineA, 9)
	k.RunUntil(s.Quiescent)

	begin(p1)
	var got uint64
	fired := false
	p1.Load(lineA, false, rec.sink, rec.then(func(v uint64, ok bool) { got, fired = v, true }))
	k.RunUntil(func() bool { return p0.Engine().Stats().Deferrals == 1 })
	if fired {
		t.Fatal("P1's read must wait for P0's commit")
	}
	d0, _ := asyncCommit(p0)
	k.RunUntil(func() bool { return *d0 && fired })
	if got != 9 {
		t.Fatalf("deferred reader got %d, want committed 9", got)
	}
	if stateOf(p0, lineA) != cache.Owned {
		t.Fatalf("P0 should remain owner (O) after shared service, got %v", stateOf(p0, lineA))
	}
	if st := stateOf(p1, lineA); st != cache.Shared {
		t.Fatalf("deferred reader state = %v, want S", st)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestStarvationFreedomUnderRepeatedConflicts: invariant of §4 — with
// timestamps retained across restarts, a transaction that keeps losing
// eventually holds the earliest timestamp and wins. We model two processors
// hammering the same two lines in opposite order repeatedly.
func TestStarvationFreedomUnderRepeatedConflicts(t *testing.T) {
	pol := core.Policy{EnableTLR: true, CM: core.CMStrictTS}
	k, s := rig(2, pol)
	type state struct {
		c        *Controller
		commits  int
		want     int
		running  bool
		commitOK *bool
		done     *bool
	}
	ps := []*state{{c: s.Ctrls[0], want: 5}, {c: s.Ctrls[1], want: 5}}
	var step func(p *state, other memsys.Addr, first memsys.Addr)
	step = func(p *state, first, second memsys.Addr) {
		if p.commits >= p.want {
			return
		}
		eng := p.c.Engine()
		if eng.Aborted() {
			eng.AckAbort()
		}
		begin(p.c)
		fired1 := false
		p.c.Store(first, uint64(p.commits), rec.sink, rec.then(func(_ uint64, ok bool) { fired1 = true }))
		_ = fired1
		fired2 := false
		p.c.Store(second, uint64(p.commits), rec.sink, rec.then(func(_ uint64, ok bool) { fired2 = true }))
		_ = fired2
		p.c.TryCommit(rec.sink, rec.then(func(_ uint64, ok bool) {
			if ok {
				p.commits++
			}
			// Re-run on the next cycle regardless of outcome.
			k.After(10, func() {
				if p.c == s.Ctrls[0] {
					step(p, lineA, lineB)
				} else {
					step(p, lineB, lineA)
				}
			})
		}))
	}
	k.At(0, func() { step(ps[0], lineA, lineB) })
	k.At(1, func() { step(ps[1], lineB, lineA) })
	finished := func() bool { return ps[0].commits >= 5 && ps[1].commits >= 5 }
	if !k.RunUntil(finished) {
		t.Fatalf("starvation: P0 %d/5 P1 %d/5 commits, aborts P0=%v P1=%v",
			ps[0].commits, ps[1].commits,
			s.Ctrls[0].Engine().Stats().Aborts, s.Ctrls[1].Engine().Stats().Aborts)
	}
}

// TestNACKRetentionResolvesConflict: the §3 alternative to deferral — the
// conflict winner refuses the request (NACK) and the loser retries — must
// reach the same outcome as Figure 4's deferral, with retry traffic instead
// of buffering.
func TestNACKRetentionResolvesConflict(t *testing.T) {
	pol := core.Policy{EnableTLR: true, RetentionNACK: true}
	k, s := rig(2, pol)
	p0, p1 := s.Ctrls[0], s.Ctrls[1]

	begin(p0)
	specStore(t, p0, lineA, 100)
	k.RunUntil(s.Quiescent)

	// P1 (later timestamp) requests A; P0 wins and NACKs until commit.
	begin(p1)
	specStore(t, p1, lineA, 200)
	k.RunUntil(func() bool { return p0.Stats().NacksSent > 0 })
	if p0.Engine().DeferredLen() != 0 {
		t.Fatal("NACK mode must not buffer deferred requests")
	}

	d0, ok0 := asyncCommit(p0)
	k.RunUntil(func() bool { return *d0 })
	if !*ok0 {
		t.Fatal("P0 must commit")
	}
	d1, ok1 := asyncCommit(p1)
	k.RunUntil(func() bool { return *d1 })
	if !*ok1 {
		t.Fatal("P1 must eventually win a retry and commit")
	}
	k.RunUntil(s.Quiescent)
	if v := s.ArchWord(lineA); v != 200 {
		t.Fatalf("A = %d, want 200", v)
	}
	if p1.Stats().NackRetries == 0 {
		t.Fatal("P1 should have retried after being refused")
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestLivelockWithoutTimestamps reproduces Figure 2: without a conflict
// resolution scheme (plain SLE semantics: every conflict is lost and both
// sides restart), two processors writing blocks A and B in opposite orders
// can restart each other indefinitely. With TLR's timestamps the same
// access pattern completes immediately (Figure 4).
func TestLivelockWithoutTimestamps(t *testing.T) {
	attempt := func(enableTLR bool, rounds int) (commits [2]int, aborts uint64) {
		pol := core.Policy{EnableTLR: enableTLR}
		k, s := rig(2, pol)
		type st struct {
			c     *Controller
			done  int
			round int
		}
		ps := [2]*st{{c: s.Ctrls[0]}, {c: s.Ctrls[1]}}
		var step func(i int)
		// Exactly one continuation survives per round: every async path
		// checks the round id and bumps it before scheduling the retry.
		retry := func(i, round int) {
			if ps[i].round != round {
				return
			}
			ps[i].round++
			k.After(5, func() { step(i) })
		}
		step = func(i int) {
			p := ps[i]
			if p.done >= rounds {
				return
			}
			round := p.round
			eng := p.c.Engine()
			if eng.Aborted() {
				eng.AckAbort()
			}
			p.c.OnAbort = func(core.Reason) { retry(i, round) }
			begin(p.c)
			first, second := lineA, lineB
			if i == 1 {
				first, second = lineB, lineA
			}
			p.c.Store(first, uint64(i), rec.sink, rec.next())
			// Hold the first block exclusively for a while before touching
			// the second — the Figure 2 pattern that makes the crossed
			// requests collide on every attempt.
			k.After(150, func() {
				if p.round != round {
					return
				}
				if eng.Aborted() {
					retry(i, round)
					return
				}
				p.c.Store(second, uint64(i), rec.sink, rec.next())
				p.c.TryCommit(rec.sink, rec.then(func(_ uint64, ok bool) {
					if ok {
						p.done++
					}
					retry(i, round)
				}))
			})
		}
		k.At(0, func() { step(0) })
		k.At(1, func() { step(1) })
		// Bound the experiment: run a fixed number of kernel events.
		k.RunLimit(200_000)
		return [2]int{ps[0].done, ps[1].done},
			s.Ctrls[0].Engine().Stats().TotalAborts() + s.Ctrls[1].Engine().Stats().TotalAborts()
	}

	// Without conflict resolution: both processors keep restarting each
	// other on the crossed A/B writes — neither makes meaningful progress
	// and aborts pile up (the lock fallback that saves SLE in practice is
	// deliberately absent here, as in the paper's Figure 2 thought
	// experiment).
	commits, aborts := attempt(false, 50)
	if aborts < 20 {
		t.Errorf("expected a restart storm without conflict resolution, got %d aborts", aborts)
	}
	if commits[0]+commits[1] >= 100 {
		t.Errorf("both processors completed (%v) despite livelock conditions", commits)
	}

	// With TLR: the same pattern completes all rounds.
	commits, _ = attempt(true, 50)
	if commits[0] < 50 || commits[1] < 50 {
		t.Errorf("TLR should complete all rounds, got %v", commits)
	}
}

// TestSquashedSpecAtomicDropsStore: a speculative atomic is a load and then
// a buffered store. When its transaction is squashed while the load misses,
// the store belongs to the dead transaction: it must not land in the next
// transaction's write buffer, nor go out as a plain store once speculation
// has ended, and the atomic must complete as squashed.
func TestSquashedSpecAtomicDropsStore(t *testing.T) {
	atomics := []struct {
		name  string
		issue func(c *Controller, n uint64)
	}{
		{"Swap", func(c *Controller, n uint64) { c.Swap(lineA, 9, rec.sink, n) }},
		{"CAS", func(c *Controller, n uint64) { c.CAS(lineA, 7, 9, rec.sink, n) }},
		{"FetchAdd", func(c *Controller, n uint64) { c.FetchAdd(lineA, 2, rec.sink, n) }},
	}
	for _, at := range atomics {
		for _, nextTxn := range []bool{true, false} {
			name := at.name + "/speculation-ended"
			if nextTxn {
				name = at.name + "/next-transaction"
			}
			t.Run(name, func(t *testing.T) {
				k, s := rig(2, core.Policy{EnableTLR: true})
				p0 := s.Ctrls[0]
				s.Mem.WriteWord(lineA, 7)
				begin(p0)
				n := rec.next()
				at.issue(p0, n)
				if rec.got[n].done {
					t.Fatal("the atomic's load hit; the test needs it to miss")
				}
				p0.AbortTxn(core.ReasonExplicit)
				p0.Engine().AckAbort()
				if nextTxn {
					begin(p0)
				}
				k.RunUntil(s.Quiescent)
				if !rec.got[n].done {
					t.Fatal("the squashed atomic never completed")
				}
				if rec.got[n].ok {
					t.Error("the squashed atomic completed as live")
				}
				if got := p0.WriteBufferLines(); got != 0 {
					t.Errorf("the squashed atomic's store is in the next transaction's write buffer (%d lines)", got)
				}
				if nextTxn {
					if !commit(t, k, p0) {
						t.Fatal("the next transaction failed to commit")
					}
					k.RunUntil(s.Quiescent)
				}
				if v := s.ArchWord(lineA); v != 7 {
					t.Errorf("A = %d after the squashed atomic, want 7", v)
				}
				if err := s.CheckCoherence(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
