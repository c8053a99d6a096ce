package wpq

import "soteria/internal/sim"

// state is everything a queue decides: its statistics, its pending entries
// in enqueue order, and the busy horizon of every bank it drains into.
type state struct {
	stats    Stats
	pending  []entry
	horizons []sim.Time
}

func dumpState(stats Stats, pending []entry, banks *sim.Banks) state {
	s := state{stats: stats, pending: append([]entry(nil), pending...)}
	for b := 0; b < banks.N(); b++ {
		s.horizons = append(s.horizons, banks.NextFree(b))
	}
	return s
}

func (q *Queue) dump() state { return dumpState(q.stats, q.pending, q.banks) }
