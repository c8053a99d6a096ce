package wpq

import (
	"fmt"

	"soteria/internal/sim"
)

// Checkpoint serializes the queue's timing state — pending entries in
// enqueue order plus statistics. The soonest-completion watermark is
// derivable and the device/banks are checkpointed by their owners.
func (q *Queue) Checkpoint(w *sim.SnapW) {
	w.U32(uint32(q.capacity))
	w.Time(q.writeLat)
	w.U64(q.stats.Inserts)
	w.U64(q.stats.Coalesced)
	w.U64(q.stats.Stalls)
	w.Time(q.stats.StallTime)
	w.I64(int64(q.stats.MaxDepth))
	w.U64(q.stats.AtomicSets)
	w.U32(uint32(len(q.pending)))
	for _, e := range q.pending {
		w.U64(e.addr)
		w.Time(e.completion)
	}
}

// Restore loads a Checkpoint written by a queue with the same geometry,
// rederiving the soonest-completion watermark from the entry list.
func (q *Queue) Restore(r *sim.SnapR) error {
	if c := r.U32(); int(c) != q.capacity {
		return fmt.Errorf("wpq: checkpoint capacity %d, queue has %d", c, q.capacity)
	}
	if lat := r.Time(); lat != q.writeLat {
		return fmt.Errorf("wpq: checkpoint write latency %v, queue has %v", lat, q.writeLat)
	}
	q.stats.Inserts = r.U64()
	q.stats.Coalesced = r.U64()
	q.stats.Stalls = r.U64()
	q.stats.StallTime = r.Time()
	q.stats.MaxDepth = int(r.I64())
	q.stats.AtomicSets = r.U64()
	n := r.Count(16)
	if r.Err() != nil {
		return r.Err()
	}
	if n > q.capacity {
		return fmt.Errorf("wpq: checkpoint has %d pending entries, capacity %d", n, q.capacity)
	}
	q.pending = q.pending[:0]
	q.soonest = never
	for i := 0; i < n; i++ {
		e := entry{addr: r.U64(), completion: r.Time()}
		q.pending = append(q.pending, e)
		q.soonest = min(q.soonest, e.completion)
	}
	return r.Err()
}
