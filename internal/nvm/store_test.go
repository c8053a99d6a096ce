package nvm

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"soteria/internal/ecc"
	"soteria/internal/sim"
)

func pattern(idx uint64, ver byte) *Line {
	var l Line
	for i := range l {
		l[i] = byte(idx)*31 + byte(i)*7 + ver
	}
	return &l
}

func checkpointOf(d *Device) []byte {
	var w sim.SnapW
	d.Checkpoint(&w)
	return append([]byte(nil), w.Data()...)
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func oneBit(byteIdx int, bit uint) *Line {
	var l Line
	l[byteIdx] = 1 << bit
	return &l
}

// scriptedHistory drives one device through every kind of state the image
// can hold and returns it with the checkpoint taken just before ClearFaults
// (stuck-at masks and ECP pointers still in place).
func scriptedHistory(t *testing.T) (d *Device, faulted []byte) {
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

	faulted = checkpointOf(d)
	d.ClearFaults()
	return d, faulted
}

// The image hashes below were produced by the map-backed store at commit
// 5caa187; the paged store must emit the same bytes.
func TestCheckpointBytesPinned(t *testing.T) {
	d, faulted := scriptedHistory(t)
	cleared := checkpointOf(d)
	for _, c := range []struct {
		name, want string
		img        []byte
	}{
		{"before ClearFaults", pinnedFaulted, faulted},
		{"after ClearFaults", pinnedCleared, cleared},
	} {
		if got := sha(c.img); got != c.want {
			t.Errorf("%s: checkpoint sha256 %s, want %s", c.name, got, c.want)
		}
		r, err := NewDevice(1<<20, ecc.NewChipkill())
		if err != nil {
			t.Fatal(err)
		}
		rd := sim.NewSnapR(c.img)
		if err := r.Restore(rd); err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		if err := rd.Done(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again := checkpointOf(r); sha(again) != c.want {
			t.Errorf("%s: restore -> checkpoint is not byte-identical", c.name)
		}
		if r.TouchedLines() != d.TouchedLines() || r.Stats() != d.Stats() || r.ECPStats() != d.ECPStats() {
			t.Errorf("%s: restored device disagrees: touched %d/%d", c.name, r.TouchedLines(), d.TouchedLines())
		}
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

// image hand-builds a device checkpoint so Restore can be fed states no
// device produces.
type imageLine struct {
	idx   uint64
	check []byte
}

type imageECP struct {
	idx  uint64
	bits []uint16
}

func image(capacity uint64, checkBytes int, lines []imageLine, wear [][2]uint64, ecp []imageECP) []byte {
	var w sim.SnapW
	w.U64(capacity)
	w.U32(uint32(checkBytes))
	for i := 0; i < 4; i++ {
		w.U64(0)
	}
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		w.U64(l.idx)
		w.Raw(make([]byte, LineSize))
		w.Bytes(l.check)
		w.Bool(false)
	}
	w.U32(uint32(len(wear)))
	for _, e := range wear {
		w.U64(e[0])
		w.U64(e[1])
	}
	w.I64(2)
	w.U64(0)
	w.U32(uint32(len(ecp)))
	for _, e := range ecp {
		w.U64(e.idx)
		w.U32(uint32(len(e.bits)))
		for _, b := range e.bits {
			w.U16(b)
			w.Bool(true)
		}
	}
	return w.Data()
}

// Restore either rejects a hostile image or round-trips it; it never panics
// and never leaves the line count disagreeing with iteration.
func TestRestoreHostileImages(t *testing.T) {
	const capacity = 1 << 20
	ck := make([]byte, 16)
	ok := func(idx uint64) imageLine { return imageLine{idx, ck} }
	for _, c := range []struct {
		name   string
		img    []byte
		reject bool
	}{
		{"well-formed", image(capacity, 16, []imageLine{ok(1), ok(300)}, [][2]uint64{{300, 4}}, []imageECP{{1, []uint16{7}}}), false},
		{"duplicate line index", image(capacity, 16, []imageLine{ok(9), ok(9)}, nil, nil), true},
		{"descending line index", image(capacity, 16, []imageLine{ok(9), ok(8)}, nil, nil), true},
		{"line index at capacity", image(capacity, 16, []imageLine{ok(capacity / LineSize)}, nil, nil), true},
		{"line index far beyond capacity", image(capacity, 16, []imageLine{ok(1 << 60)}, nil, nil), true},
		{"short check bytes", image(capacity, 16, []imageLine{{4, ck[:15]}}, nil, nil), true},
		{"long check bytes", image(capacity, 16, []imageLine{{4, make([]byte, 17)}}, nil, nil), true},
		{"wear for unmaterialized line", image(capacity, 16, []imageLine{ok(1)}, [][2]uint64{{2, 1}}, nil), true},
		{"wear index beyond capacity", image(capacity, 16, []imageLine{ok(1)}, [][2]uint64{{1 << 40, 1}}, nil), true},
		{"duplicate wear index", image(capacity, 16, []imageLine{ok(1)}, [][2]uint64{{1, 1}, {1, 2}}, nil), true},
		{"zero wear entry", image(capacity, 16, []imageLine{ok(1)}, [][2]uint64{{1, 0}}, nil), true},
		{"duplicate ECP index", image(capacity, 16, []imageLine{ok(1)}, nil, []imageECP{{1, []uint16{1}}, {1, []uint16{2}}}), true},
		{"ECP index beyond capacity", image(capacity, 16, nil, nil, []imageECP{{1 << 50, []uint16{1}}}), true},
		{"truncated", image(capacity, 16, []imageLine{ok(1), ok(2)}, nil, nil)[:150], true},
		{"wrong check width", image(capacity, 8, nil, nil, nil), true},
	} {
		d, err := NewDevice(capacity, ecc.NewChipkill())
		if err != nil {
			t.Fatal(err)
		}
		d.Write(0, pattern(0, 0)) // state the restore must replace
		r := sim.NewSnapR(c.img)
		err = d.Restore(r)
		if err == nil {
			err = r.Done()
		}
		n := 0
		d.ForEachTouched(func(uint64) { n++ })
		if n != d.TouchedLines() {
			t.Errorf("%s: TouchedLines %d but iteration visits %d", c.name, d.TouchedLines(), n)
		}
		switch {
		case c.reject && err == nil:
			t.Errorf("%s: accepted", c.name)
		case !c.reject && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case !c.reject:
			if got := checkpointOf(d); sha(got) != sha(c.img) {
				t.Errorf("%s: does not round-trip", c.name)
			}
		}
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

const (
	pinnedFaulted = "a490ff4b3e5190d018edd4cd657f0c58c3e8edcf1a4f5dcade1e6b6827e368c9"
	pinnedCleared = "dcfd40fafb867ef83fe1c95a0a75a0ead95feccc47fcaf08a19c78c21f637220"
)
