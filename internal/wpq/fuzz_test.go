package wpq

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// FuzzWPQMatchesReference drives Queue and the map-indexed refQueue through
// the same script of Push / PushAtomic / Pending / Depth / FlushTime calls
// at times that mostly advance but also step back (as a caller's clock does
// after Recover) and requires identical answers, returned times,
// statistics, entries queued at the last call, bank horizons and device
// images. Every push goes through PushReport, whose coalesce report must
// match the reference's and what Pending answered just before the push.
// Addresses come from a small pool so coalescing, duplicate entries from
// atomic groups, stalls and out-of-order bank completions all occur.
func FuzzWPQMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 1, 0, 1, 2, 1, 6, 9, 3, 0, 2, 1})
	f.Add(uint8(1), uint8(3), []byte{1, 4, 1, 4, 0, 5, 5, 0, 2, 5, 4, 0, 6, 200, 3, 0})
	f.Add(uint8(2), uint8(1), []byte{0, 0, 0, 8, 0, 16, 0, 24, 0, 0, 1, 7, 6, 3, 2, 8, 5, 0, 4, 0})
	f.Add(uint8(3), uint8(2), bytes.Repeat([]byte{0, 3, 1, 2, 2, 3, 6, 1}, 16))
	f.Fuzz(func(t *testing.T, capSel, bankSel uint8, script []byte) {
		capacity := []int{1, 2, 4, 16, 32}[int(capSel)%5]
		banks := []int{1, 2, 4, 8}[int(bankSel)%4]
		writeLat := sim.FromDuration(300 * time.Nanosecond)
		newDev := func() *nvm.Device {
			dev, err := nvm.NewDevice(64*nvm.LineSize, nil)
			if err != nil {
				t.Fatal(err)
			}
			return dev
		}
		qDev, rDev := newDev(), newDev()
		qBanks, rBanks := sim.NewBanks(banks), sim.NewBanks(banks)
		q, err := New(qDev, qBanks, capacity, writeLat)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefQueue(rDev, rBanks, capacity, writeLat)

		var now sim.Time
		var line nvm.Line
		addr := func(b byte) uint64 { return uint64(b%24) * nvm.LineSize }
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%8, script[i+1]
			line[0], line[1] = byte(i), byte(i>>8)
			switch op {
			case 0:
				pending := q.Pending(now, addr(arg))
				a, aCoalesced := q.PushReport(now, addr(arg), &line)
				b, bCoalesced := ref.Push(now, addr(arg), &line)
				if a != b {
					t.Fatalf("step %d: Push returned %v, reference %v", i, a, b)
				}
				if aCoalesced != bCoalesced || aCoalesced != pending {
					t.Fatalf("step %d: Push(%#x) coalesced=%v, reference %v, Pending before it %v",
						i, addr(arg), aCoalesced, bCoalesced, pending)
				}
				now = a
			case 1:
				group := make([]Write, 1+int(arg)%capacity)
				for j := range group {
					group[j] = Write{Addr: addr(arg + byte(3*j)), Data: line}
					group[j].Data[2] = byte(j)
				}
				a, b := q.PushAtomic(now, group), ref.PushAtomic(now, group)
				if a != b {
					t.Fatalf("step %d: PushAtomic returned %v, reference %v", i, a, b)
				}
				now = a
			case 2:
				if a, b := q.Pending(now, addr(arg)), ref.Pending(now, addr(arg)); a != b {
					t.Fatalf("step %d: Pending(%#x) = %v, reference %v", i, addr(arg), a, b)
				}
			case 3:
				if a, b := q.Depth(now), ref.Depth(now); a != b {
					t.Fatalf("step %d: Depth = %d, reference %d", i, a, b)
				}
			case 4:
				if a, b := q.FlushTime(now), ref.FlushTime(now); a != b {
					t.Fatalf("step %d: FlushTime = %v, reference %v", i, a, b)
				}
			case 5:
				sameState(t, i, q, ref)
			case 6:
				now += sim.Time(arg) * writeLat / 16
			case 7:
				now = max(0, now-sim.Time(arg)*writeLat/16)
			}
			if q.Stats() != ref.stats {
				t.Fatalf("step %d: stats %+v, reference %+v", i, q.Stats(), ref.stats)
			}
		}
		sameState(t, len(script), q, ref)
		sameImage(t, qDev, rDev)
	})
}

// sameState fails unless the queue and the reference hold the same
// statistics, entries queued at their last call (in order) and bank
// horizons.
func sameState(t *testing.T, step int, q *Queue, ref *refQueue) {
	t.Helper()
	if a, b := q.dump(), ref.dump(); !reflect.DeepEqual(a, b) {
		t.Fatalf("step %d: queue state %+v, reference %+v", step, a, b)
	}
}

// sameImage fails unless the two devices hold the same lines, cells, wear
// and statistics.
func sameImage(t *testing.T, a, b *nvm.Device) {
	t.Helper()
	var la, lb []uint64
	a.ForEachTouched(func(addr uint64) { la = append(la, addr) })
	b.ForEachTouched(func(addr uint64) { lb = append(lb, addr) })
	if !reflect.DeepEqual(la, lb) {
		t.Fatalf("device lines %v, reference %v", la, lb)
	}
	for _, addr := range la {
		if a.ReadRaw(addr) != b.ReadRaw(addr) || a.WearOf(addr) != b.WearOf(addr) {
			t.Fatalf("device line %#x differs from the reference's", addr)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("device stats %+v, reference %+v", a.Stats(), b.Stats())
	}
}
