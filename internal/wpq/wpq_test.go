package wpq

import (
	"testing"
	"time"

	"soteria/internal/nvm"
	"soteria/internal/sim"
)

func newQ(t testing.TB, capacity, banks int) (*Queue, *nvm.Device) {
	t.Helper()
	dev, err := nvm.NewDevice(1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := New(dev, sim.NewBanks(banks), capacity, sim.FromDuration(300*time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	return q, dev
}

func TestWriteIsImmediatelyDurable(t *testing.T) {
	q, dev := newQ(t, 8, 4)
	var l nvm.Line
	l[0] = 0xEE
	q.Push(0, 64, &l)
	// ADR: even "before" the drain completes, the device holds the data.
	if got := dev.Read(64); got.Data != l {
		t.Fatal("WPQ write not durable")
	}
}

func TestPendingAndDrain(t *testing.T) {
	q, _ := newQ(t, 8, 4)
	var l nvm.Line
	q.Push(0, 0, &l)
	if !q.Pending(0, 0) {
		t.Fatal("write not pending right after push")
	}
	w := sim.FromDuration(300 * time.Nanosecond)
	if q.Pending(w+1, 0) {
		t.Fatal("write still pending after service latency")
	}
	if q.Depth(w+1) != 0 {
		t.Fatal("queue not drained")
	}
}

func TestStallWhenFull(t *testing.T) {
	q, _ := newQ(t, 2, 1) // single bank serializes drains
	var l nvm.Line
	w := sim.FromDuration(300 * time.Nanosecond)
	now := q.Push(0, 0, &l)
	now = q.Push(now, 64, &l)
	if now != 0 {
		t.Fatalf("no stall expected while queue has room, now=%v", now)
	}
	// Queue full; third push must stall until the first drain at 300ns.
	now = q.Push(now, 128, &l)
	if now != w {
		t.Fatalf("stall time = %v, want %v", now, w)
	}
	if q.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d", q.Stats().Stalls)
	}
}

func TestBankParallelismSpeedsDrain(t *testing.T) {
	mk := func(banks int) sim.Time {
		q, _ := newQ(t, 4, banks)
		var l nvm.Line
		now := sim.Time(0)
		for i := uint64(0); i < 8; i++ {
			now = q.Push(now, i*64, &l)
		}
		return q.FlushTime(now)
	}
	serial := mk(1)
	parallel := mk(8)
	if parallel >= serial {
		t.Fatalf("8 banks (%v) not faster than 1 bank (%v)", parallel, serial)
	}
}

func TestPushAtomicCapacityPanic(t *testing.T) {
	q, _ := newQ(t, 4, 4)
	writes := make([]Write, 5)
	for i := range writes {
		writes[i].Addr = uint64(i) * 64
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized atomic group accepted")
		}
	}()
	q.PushAtomic(0, writes)
}

func TestPushAtomicWaitsForRoom(t *testing.T) {
	q, dev := newQ(t, 4, 1)
	var l nvm.Line
	now := q.Push(0, 0, &l)
	now = q.Push(now, 64, &l)
	// Queue holds 2 of 4; a 3-wide atomic group needs one drain first.
	writes := []Write{{Addr: 128}, {Addr: 192}, {Addr: 256}}
	for i := range writes {
		writes[i].Data[0] = byte(i + 1)
	}
	before := now
	now = q.PushAtomic(now, writes)
	if now <= before {
		t.Fatal("atomic push did not stall for room")
	}
	for i, w := range writes {
		if dev.Read(w.Addr).Data[0] != byte(i+1) {
			t.Fatalf("atomic write %d not applied", i)
		}
	}
	if q.Stats().AtomicSets != 1 {
		t.Fatal("atomic set not counted")
	}
}

func TestFlushTimeCoversAllPending(t *testing.T) {
	q, _ := newQ(t, 8, 2)
	var l nvm.Line
	var now sim.Time
	for i := uint64(0); i < 6; i++ {
		now = q.Push(now, i*64, &l)
	}
	ft := q.FlushTime(now)
	if q.Depth(ft) != 0 {
		t.Fatal("entries remain after FlushTime")
	}
	if ft <= now {
		t.Fatal("flush time not in the future")
	}
}

func TestDuplicateAddressCoalesces(t *testing.T) {
	q, dev := newQ(t, 8, 1)
	var l1, l2 nvm.Line
	l1[0], l2[0] = 1, 2
	q.Push(0, 0, &l1)
	q.Push(0, 0, &l2)
	if q.Depth(0) != 1 {
		t.Fatalf("coalesced push grew the queue: depth %d", q.Depth(0))
	}
	if q.Stats().Coalesced != 1 {
		t.Fatal("coalesce not counted")
	}
	if dev.Read(0).Data[0] != 2 {
		t.Fatal("coalesced write lost the newest data")
	}
	w := sim.FromDuration(300 * time.Nanosecond)
	if q.Pending(w+1, 0) {
		t.Fatal("entry should have drained once")
	}
}
