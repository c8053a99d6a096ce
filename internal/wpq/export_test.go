package wpq

import "soteria/internal/sim"

// state is everything a queue decides: its statistics, the entries still
// queued at its last call in enqueue order, and the busy horizon of every
// bank it drains into. Entries that retired by then are left out: the
// queue drops them at its next compaction, not when it is asked.
type state struct {
	stats    Stats
	pending  []entry
	horizons []sim.Time
}

func dumpState(stats Stats, pending []entry, now sim.Time, banks *sim.Banks) state {
	s := state{stats: stats}
	for _, e := range pending {
		if e.completion > now {
			s.pending = append(s.pending, e)
		}
	}
	for b := 0; b < banks.N(); b++ {
		s.horizons = append(s.horizons, banks.NextFree(b))
	}
	return s
}

func (q *Queue) dump() state { return dumpState(q.stats, q.pending, q.now, q.banks) }
