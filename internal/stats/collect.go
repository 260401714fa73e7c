package stats

import (
	"tlrsim/internal/core"
	"tlrsim/internal/proc"
)

// Collect aggregates a finished machine's counters into a Run.
func Collect(m *proc.Machine) *Run {
	r := &Run{
		Scheme:         m.Config().Scheme.String(),
		Procs:          len(m.CPUs),
		Cycles:         uint64(m.Cycles()),
		AbortsByReason: make(map[string]uint64),
	}
	for _, cpu := range m.CPUs {
		es := cpu.Engine().Stats()
		r.Starts += es.Starts
		r.Commits += es.Commits
		r.Aborts += es.TotalAborts()
		r.Fallbacks += es.Fallbacks
		r.Deferrals += es.Deferrals
		r.RelaxedWins += es.RelaxedWins
		r.DeferOverflows += es.DeferOverflow
		for _, reason := range core.Reasons() {
			if n := es.AbortsFor(reason); n > 0 {
				r.AbortsByReason[reason.String()] += n
			}
		}
		ps := cpu.Stats()
		r.Busy += ps.Busy
		r.LockStall += ps.LockStall
		r.DataStall += ps.DataStall
		cs := cpu.Ctrl().Stats()
		r.Loads += cs.Loads
		r.Stores += cs.Stores
		r.Misses += cs.Misses
		r.Upgrades += cs.Upgrades
		r.Writebacks += cs.Writebacks
	}
	bs := m.Sys.Bus.Stats()
	for _, n := range bs.Txns {
		r.BusTxns += n
	}
	r.DataMsgs = bs.DataMsgs
	r.Markers = bs.Markers
	r.Probes = bs.Probes
	r.MaxRetries = m.MaxRetries()
	r.FaultStats = m.FaultStats()
	r.DeadlockRecoveries = m.DeadlockRecoveries()
	r.MetricsDump = m.Metrics().Dump(uint64(m.K.Now()))
	return r
}
