package wpq

import (
	"fmt"
	"math"

	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// refQueue is the map-indexed WPQ as it stood before the queue dropped its
// occupancy map: every Pending/Push consults inQueue, drain filters the
// whole queue on every call, and stalls search the minimum completion.
// FuzzWPQMatchesReference holds Queue to its answers, times, statistics,
// pending entries, bank horizons and device image. Hooks and telemetry are left out:
// they observe, they do not decide.
type refQueue struct {
	dev      *nvm.Device
	banks    *sim.Banks
	writeLat sim.Time
	capacity int
	pending  []entry
	inQueue  map[uint64]int
	stats    Stats
}

func newRefQueue(dev *nvm.Device, banks *sim.Banks, capacity int, writeLat sim.Time) *refQueue {
	return &refQueue{dev: dev, banks: banks, writeLat: writeLat, capacity: capacity, inQueue: make(map[uint64]int)}
}

func (q *refQueue) Depth(now sim.Time) int {
	q.drain(now)
	return len(q.pending)
}

func (q *refQueue) Pending(now sim.Time, lineAddr uint64) bool {
	q.drain(now)
	return q.inQueue[lineAddr] > 0
}

func (q *refQueue) drain(now sim.Time) {
	kept := q.pending[:0]
	for _, e := range q.pending {
		if e.completion > now {
			kept = append(kept, e)
			continue
		}
		if q.inQueue[e.addr] == 1 {
			delete(q.inQueue, e.addr)
		} else {
			q.inQueue[e.addr]--
		}
	}
	q.pending = kept
}

func (q *refQueue) earliest() sim.Time {
	earliest := q.pending[0].completion
	for _, e := range q.pending[1:] {
		if e.completion < earliest {
			earliest = e.completion
		}
	}
	return earliest
}

// Push returns the producer's time after any stall and whether the write
// coalesced into a queued entry.
func (q *refQueue) Push(now sim.Time, addr uint64, data *nvm.Line) (sim.Time, bool) {
	q.drain(now)
	if q.inQueue[addr] > 0 {
		q.dev.Write(addr, data)
		q.stats.Coalesced++
		return now, true
	}
	if len(q.pending) >= q.capacity {
		earliest := q.earliest()
		q.stats.Stalls++
		q.stats.StallTime += earliest - now
		now = earliest
		q.drain(now)
	}
	bank := q.banks.BankFor(addr / nvm.LineSize)
	done := q.banks.Schedule(bank, now, q.writeLat)
	q.pending = append(q.pending, entry{addr: addr, completion: done})
	q.inQueue[addr]++
	q.dev.Write(addr, data)
	q.stats.Inserts++
	if len(q.pending) > q.stats.MaxDepth {
		q.stats.MaxDepth = len(q.pending)
	}
	return now, false
}

func (q *refQueue) PushAtomic(now sim.Time, writes []Write) sim.Time {
	if len(writes) > q.capacity {
		panic(fmt.Sprintf("wpq: atomic group of %d exceeds WPQ capacity %d", len(writes), q.capacity))
	}
	q.drain(now)
	for len(q.pending)+len(writes) > q.capacity {
		earliest := q.earliest()
		q.stats.Stalls++
		q.stats.StallTime += earliest - now
		now = earliest
		q.drain(now)
	}
	for i := range writes {
		bank := q.banks.BankFor(writes[i].Addr / nvm.LineSize)
		done := q.banks.Schedule(bank, now, q.writeLat)
		q.pending = append(q.pending, entry{addr: writes[i].Addr, completion: done})
		q.inQueue[writes[i].Addr]++
		q.dev.Write(writes[i].Addr, &writes[i].Data)
		q.stats.Inserts++
	}
	if len(q.pending) > q.stats.MaxDepth {
		q.stats.MaxDepth = len(q.pending)
	}
	q.stats.AtomicSets++
	return now
}

func (q *refQueue) FlushTime(now sim.Time) sim.Time {
	q.drain(now)
	t := now
	for _, e := range q.pending {
		if e.completion > t {
			t = e.completion
		}
	}
	return t
}

// dump keeps every pending entry: the reference drains at every call, so
// none of them has retired by its last one.
func (q *refQueue) dump() state { return dumpState(q.stats, q.pending, math.MinInt64, q.banks) }
