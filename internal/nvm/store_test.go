package nvm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"soteria/internal/ecc"
)

func pattern(idx uint64, ver byte) *Line {
	var l Line
	for i := range l {
		l[i] = byte(idx)*31 + byte(i)*7 + ver
	}
	return &l
}

// imageDigest hashes what the device's public queries report: statistics,
// ECP books, the materialized-line count and, for every materialized line in
// ascending order, its address, wear and raw cells.
func imageDigest(d *Device) string {
	var b []byte
	u := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	s, e := d.Stats(), d.ECPStats()
	u(s.Reads, s.Writes, s.CorrectedLines, s.UncorrectableHits)
	u(uint64(e.LinesRepaired), uint64(e.PointersUsed), e.Exhausted)
	u(uint64(d.TouchedLines()))
	d.ForEachTouched(func(a uint64) {
		raw := d.ReadRaw(a)
		u(a, d.WearOf(a))
		b = append(b, raw[:]...)
	})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func oneBit(byteIdx int, bit uint) *Line {
	var l Line
	l[byteIdx] = 1 << bit
	return &l
}

// scriptedHistory drives one device through every kind of state the image
// can hold and returns it with the image digest taken just before
// ClearFaults (stuck-at masks and ECP pointers still in place).
func scriptedHistory(t *testing.T) (d *Device, faulted string) {
	t.Helper()
	d, err := NewDevice(1<<20, ecc.NewChipkill())
	if err != nil {
		t.Fatal(err)
	}
	d.EnableECP(2)
	for ver, idx := range []uint64{900, 3, 77, 16383, 0, 3, 255, 256} {
		d.Write(idx*LineSize, pattern(idx, byte(ver)))
	}

	// Faults that only touch cells: a never-written line materializes
	// without a wear entry; line 77 keeps a flipped check bit unread.
	d.FlipBit(5*LineSize+9, 3)
	d.FlipCheckBit(77*LineSize, 5, 2)
	d.CorruptWord(900*LineSize, 6)

	// Line 40: one stuck cell, within the ECP budget (repaired).
	d.StickBits(40*LineSize, oneBit(12, 4), oneBit(12, 4))
	d.Write(40*LineSize, pattern(40, 0xFF))
	// Line 41: three stuck cells, over budget (exhausted). Two share beat
	// 1, one sits alone in beat 5, so a read corrects one beat, fails
	// another and demand-scrubs around the failure.
	stuck := Line{}
	stuck[8], stuck[11], stuck[40] = 1, 1, 1
	d.StickBits(41*LineSize, &stuck, &Line{})
	full := Line{}
	for i := range full {
		full[i] = 0xFF
	}
	d.Write(41*LineSize, &full)
	// Line 42: pointers allocated, then retired by a write the cells take.
	d.StickBits(42*LineSize, oneBit(0, 0), &Line{})
	d.Write(42*LineSize, &full)
	d.Write(42*LineSize, &Line{})

	// A corrected read demand-scrubs line 3.
	d.FlipBit(3*LineSize+17, 0)
	if r := d.Read(3 * LineSize); !r.Corrected || r.Uncorrectable || r.Data != *pattern(3, 5) {
		t.Fatalf("line 3: %+v", r)
	}
	if r := d.Read(40 * LineSize); r.Corrected || r.Uncorrectable || r.Data != *pattern(40, 0xFF) {
		t.Fatalf("ECP-repaired line 40: %+v", r)
	}
	if r := d.Read(41 * LineSize); !r.Corrected || !r.Uncorrectable || len(r.BadWords) != 1 || r.BadWords[0] != 1 {
		t.Fatalf("exhausted line 41: %+v", r)
	}
	if r := d.Read(900 * LineSize); !r.Uncorrectable || len(r.BadWords) != 1 || r.BadWords[0] != 6 {
		t.Fatalf("corrupt line 900: %+v", r)
	}
	d.Read(7 * LineSize) // untouched: counted, not materialized

	faulted = imageDigest(d)
	d.ClearFaults()
	return d, faulted
}

// The digests below were computed at the commit whose device checkpoint
// bytes still matched the hashes the map-backed store produced at commit
// 5caa187, so they pin the same images. ClearFaults changes only check bytes
// and stuck-at masks, which no query reports, so both states share a digest.
func TestImageDigestPinned(t *testing.T) {
	d, faulted := scriptedHistory(t)
	if faulted != pinnedImage {
		t.Errorf("before ClearFaults: image digest %s, want %s", faulted, pinnedImage)
	}
	if got := imageDigest(d); got != pinnedImage {
		t.Errorf("after ClearFaults: image digest %s, want %s", got, pinnedImage)
	}
}

func TestQueriesByLineState(t *testing.T) {
	d, _ := scriptedHistory(t)
	for _, c := range []struct {
		name         string
		idx          uint64
		materialized bool
		wear         uint64
		raw          *Line
	}{
		{"untouched", 7, false, 0, &Line{}},
		{"untouched, next to last", d.Lines() - 2, false, 0, &Line{}},
		{"faulted only", 5, true, 0, oneBit(9, 3)},
		{"written once", 900, true, 1, func() *Line { l := *pattern(900, 0); l[48] ^= 0x01; l[51] ^= 0x80; return &l }()},
		{"written twice", 3, true, 2, pattern(3, 5)},
		{"page edge low", 255, true, 1, pattern(255, 6)},
		{"page edge high", 256, true, 1, pattern(256, 7)},
		{"last page", 16383, true, 1, pattern(16383, 3)},
	} {
		addr := c.idx * LineSize
		if got := d.Materialized(addr + 13); got != c.materialized {
			t.Errorf("%s: Materialized = %v", c.name, got)
		}
		if got := d.WearOf(addr + 13); got != c.wear {
			t.Errorf("%s: WearOf = %d, want %d", c.name, got, c.wear)
		}
		if got := d.ReadRaw(addr); got != *c.raw {
			t.Errorf("%s: ReadRaw = %x, want %x", c.name, got, *c.raw)
		}
	}
	want := []uint64{0, 3, 5, 40, 41, 42, 77, 255, 256, 900, 16383}
	var got []uint64
	d.ForEachTouched(func(a uint64) { got = append(got, a/LineSize) })
	if len(got) != len(want) || d.TouchedLines() != len(want) {
		t.Fatalf("touched %v (TouchedLines %d), want %v", got, d.TouchedLines(), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEachTouched order %v, want ascending %v", got, want)
		}
	}
	if d.ReadRaw(7*LineSize) != (Line{}) || d.Materialized(7*LineSize) {
		t.Fatal("queries materialized an untouched line")
	}
	reads := d.Stats().Reads
	var r ReadResult
	if d.ReadIfMaterialized(7*LineSize, &r) || d.Stats().Reads != reads {
		t.Fatal("ReadIfMaterialized reported an untouched line or counted its read")
	}
	if ok := d.ReadIfMaterialized(3*LineSize, &r); !ok || r.Data != *pattern(3, 5) || d.Stats().Reads != reads+1 {
		t.Fatalf("ReadIfMaterialized of a written line: ok %v, data %x, %d reads counted", ok, r.Data, d.Stats().Reads-reads)
	}
}

// ForEachTouched visits lines in ascending address order whatever order they
// materialized in; chaos.Injector and memctrl.VerifyAll rely on it.
func TestForEachTouchedAscending(t *testing.T) {
	d, err := NewDevice(1<<30, ecc.NewChipkill())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		idx := uint64(rng.Int63n(int64(d.Lines())))
		if i%3 == 0 {
			d.FlipBit(idx*LineSize, 1)
		} else {
			d.Write(idx*LineSize, pattern(idx, 1))
		}
		seen[idx] = true
	}
	var prev uint64
	n := 0
	d.ForEachTouched(func(a uint64) {
		if n > 0 && a <= prev {
			t.Fatalf("line %#x visited after %#x", a, prev)
		}
		if !seen[a/LineSize] {
			t.Fatalf("visited untouched line %#x", a)
		}
		prev = a
		n++
	})
	if n != len(seen) || d.TouchedLines() != len(seen) {
		t.Fatalf("visited %d, TouchedLines %d, want %d", n, d.TouchedLines(), len(seen))
	}
}

// The package comment promises cost proportional to the touched footprint:
// a 16 GB device with one written line per GiB stays under 2 MB, directory
// included.
func TestSparseFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := NewDevice(16<<30, ecc.NewChipkill())
	if err != nil {
		t.Fatal(err)
	}
	for g := uint64(0); g < 16; g++ {
		d.Write(g<<30, pattern(g, 1))
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Fatalf("16 lines on a 16 GB device allocated %d bytes", got)
	}
	if d.TouchedLines() != 16 || d.Read(15<<30).Data != *pattern(15, 1) {
		t.Fatal("sparse device lost a line")
	}
}

const pinnedImage = "5e4a76d91c6c52236a4dee92363c29ee5aea4bf0c9b515e2db41d08cdf861194"
