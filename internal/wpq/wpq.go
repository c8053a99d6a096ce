// Package wpq models the memory controller's Write Pending Queue. The WPQ
// sits inside the Asynchronous DRAM Refresh (ADR) domain: once a write is
// accepted into the queue it is guaranteed to reach the NVM even across a
// power failure, so functionally every accepted write is durable
// immediately. What the WPQ adds on top of the device is *timing* — bounded
// occupancy, bank-aware drain scheduling, and stalls when producers outrun
// the NVM's write bandwidth — plus the atomic-commit capacity constraint
// that caps Soteria's clone depth at five copies (§3.2.1).
package wpq

import (
	"fmt"
	"math"

	"soteria/internal/inject"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// Stats aggregates WPQ activity.
type Stats struct {
	Inserts    uint64
	Coalesced  uint64
	Stalls     uint64
	StallTime  sim.Time
	MaxDepth   int
	AtomicSets uint64
}

type entry struct {
	addr       uint64
	completion sim.Time
}

// Queue is the write pending queue draining into one NVM device.
//
// pending holds at most capacity entries (16 or 32 in the shipped
// configurations), so "is this line queued" is a scan of it, not a map.
type Queue struct {
	dev      *nvm.Device
	banks    *sim.Banks
	writeLat sim.Time
	capacity int
	pending  []entry // in enqueue order
	// soonest is the earliest completion among pending entries (never
	// when empty): until then drain has nothing to retire.
	soonest sim.Time
	stats   Stats
	hook    inject.Hook
	tel     telemetryHooks
}

// never is the soonest completion of an empty queue.
const never = sim.Time(math.MaxInt64)

// telemetryHooks holds the queue's metric handles for what its books do
// not count; nil handles (no registry attached) are no-ops.
type telemetryHooks struct {
	depthMax   *telemetry.Gauge     // high-water mark since attach
	drainTicks *telemetry.Histogram // scheduled completion - push time
}

// AttachTelemetry exports the queue's books to r and registers its
// handles there (nil detaches the handles). The drain-latency histogram
// records, per accepted write, how long the entry will sit in the queue
// before its bank retires it.
func (q *Queue) AttachTelemetry(r *telemetry.Registry) {
	r.Export("wpq_inserts_total", func() uint64 { return q.stats.Inserts })
	r.Export("wpq_coalesced_total", func() uint64 { return q.stats.Coalesced })
	r.Export("wpq_stalls_total", func() uint64 { return q.stats.Stalls })
	r.Export("wpq_stall_ticks_total", func() uint64 { return uint64(q.stats.StallTime) })
	r.Export("wpq_atomic_sets_total", func() uint64 { return q.stats.AtomicSets })
	q.tel = telemetryHooks{
		depthMax:   r.Gauge("wpq_depth_max"),
		drainTicks: r.Histogram("wpq_drain_ticks", telemetry.ExpBounds(24)),
	}
}

// SetHook installs (or removes, with nil) the injection hook notified when
// atomic clone groups begin and end. Individual writes are observed at the
// device; the group brackets let a scenario aim a crash mid-group.
func (q *Queue) SetHook(h inject.Hook) { q.hook = h }

// Reset discards all queue bookkeeping. A simulated power loss empties the
// WPQ: accepted writes already reached the device (ADR drains them), and
// the occupancy/timing state is volatile controller state.
func (q *Queue) Reset() {
	q.pending = q.pending[:0]
	q.soonest = never
}

// New builds a WPQ of the given capacity in front of dev, draining into the
// shared bank model with the given per-write service latency.
func New(dev *nvm.Device, banks *sim.Banks, capacity int, writeLat sim.Time) (*Queue, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("wpq: capacity must be positive, got %d", capacity)
	}
	return &Queue{
		dev:      dev,
		banks:    banks,
		writeLat: writeLat,
		capacity: capacity,
		soonest:  never,
	}, nil
}

// Capacity returns the queue capacity in entries.
func (q *Queue) Capacity() int { return q.capacity }

// Depth returns the current occupancy at the given time.
func (q *Queue) Depth(now sim.Time) int {
	q.drain(now)
	return len(q.pending)
}

// Stats returns a copy of the accumulated statistics.
func (q *Queue) Stats() Stats { return q.stats }

// Pending reports whether a write to the given line is still queued at
// `now` — the controller forwards reads from the WPQ in that case.
func (q *Queue) Pending(now sim.Time, lineAddr uint64) bool {
	q.drain(now)
	for i := range q.pending {
		if q.pending[i].addr == lineAddr {
			return true
		}
	}
	return false
}

// drain retires every entry whose NVM write completed by now. Completions
// are not FIFO — banks finish independently — so once the soonest one is
// due the whole queue is filtered, not just a prefix.
func (q *Queue) drain(now sim.Time) {
	if now < q.soonest {
		return
	}
	kept := q.pending[:0]
	q.soonest = never
	for _, e := range q.pending {
		if e.completion > now {
			kept = append(kept, e)
			q.soonest = min(q.soonest, e.completion)
		}
	}
	q.pending = kept
}

// enqueue schedules one new entry on addr's bank.
func (q *Queue) enqueue(now sim.Time, addr uint64) sim.Time {
	done := q.banks.Schedule(q.banks.BankFor(addr/nvm.LineSize), now, q.writeLat)
	q.pending = append(q.pending, entry{addr: addr, completion: done})
	q.soonest = min(q.soonest, done)
	return done
}

// stall advances now to the soonest completion and retires it: the
// producer waits for a free entry.
func (q *Queue) stall(now sim.Time) sim.Time {
	q.stats.Stalls++
	q.stats.StallTime += q.soonest - now
	now = q.soonest
	q.drain(now)
	return now
}

// Push accepts one line write. The data is applied to the device
// immediately (ADR durability); the returned time reflects any stall the
// producer suffered waiting for a free entry. Completion of the drain is
// scheduled on the line's bank.
//
// Writes coalesce: a push to a line that is still queued overwrites the
// pending entry in place (standard write-combining), consuming no extra
// entry and no extra bank time. This is what makes the eagerly rewritten
// shadow-tree lines nearly free in steady state.
func (q *Queue) Push(now sim.Time, addr uint64, data *nvm.Line) sim.Time {
	now, _ = q.PushReport(now, addr, data)
	return now
}

// PushReport is Push that also reports whether the write coalesced into a
// queued entry — what Pending(now, addr) would have answered just before —
// so a caller that books NVM writes needs no second scan of the queue.
func (q *Queue) PushReport(now sim.Time, addr uint64, data *nvm.Line) (sim.Time, bool) {
	if q.Pending(now, addr) {
		q.dev.Write(addr, data)
		q.stats.Coalesced++
		return now, true
	}
	if len(q.pending) >= q.capacity {
		// Stall until an entry drains. Entries complete in the order
		// their banks free up, so the head is not necessarily the
		// earliest; soonest is.
		now = q.stall(now)
	}
	done := q.enqueue(now, addr)
	q.dev.Write(addr, data)
	q.stats.Inserts++
	q.tel.drainTicks.Observe(uint64(done - now))
	if len(q.pending) > q.stats.MaxDepth {
		q.stats.MaxDepth = len(q.pending)
	}
	q.tel.depthMax.SetMax(int64(len(q.pending)))
	return now, false
}

// PushAtomic accepts a group of writes that must commit together (for
// example a node and all of its clones). The paper's constraint is that an
// atomic group can never exceed the WPQ capacity; a violation is a design
// error, so it panics. The group stalls as one unit until enough entries
// are free, then enqueues back to back.
func (q *Queue) PushAtomic(now sim.Time, writes []Write) sim.Time {
	if len(writes) > q.capacity {
		panic(fmt.Sprintf("wpq: atomic group of %d exceeds WPQ capacity %d", len(writes), q.capacity))
	}
	q.drain(now)
	for len(q.pending)+len(writes) > q.capacity {
		now = q.stall(now)
	}
	if q.hook != nil {
		q.hook.Event(inject.Event{Kind: inject.GroupBegin, Label: "atomic-group"})
	}
	for i := range writes {
		done := q.enqueue(now, writes[i].Addr)
		q.dev.Write(writes[i].Addr, &writes[i].Data)
		q.stats.Inserts++
		q.tel.drainTicks.Observe(uint64(done - now))
	}
	if q.hook != nil {
		q.hook.Event(inject.Event{Kind: inject.GroupEnd, Label: "atomic-group"})
	}
	if len(q.pending) > q.stats.MaxDepth {
		q.stats.MaxDepth = len(q.pending)
	}
	q.tel.depthMax.SetMax(int64(len(q.pending)))
	q.stats.AtomicSets++
	return now
}

// Write is one element of an atomic group.
type Write struct {
	Addr uint64
	Data nvm.Line
}

// FlushTime returns the instant at which every currently queued write has
// drained (used by persist barriers in workloads and by orderly shutdown).
func (q *Queue) FlushTime(now sim.Time) sim.Time {
	q.drain(now)
	t := now
	for _, e := range q.pending {
		if e.completion > t {
			t = e.completion
		}
	}
	return t
}
