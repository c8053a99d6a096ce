package nvm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"soteria/internal/ecc"
)

// eagerDevice is the device with no deferred check bytes: every write
// encodes, every read decodes, every new line is encoded as zeroes. It keeps
// its lines in a map, decodes with the plain RS(10,8) decoder beat by beat
// rather than Chipkill's table encoder, and shares no storage or fault code
// with Device, so FuzzDeviceMatchesEagerECC can hold the deferred device to
// it op for op.
type eagerDevice struct {
	rs    *ecc.RS
	lines map[uint64]*eagerLine
	stats Stats
}

type eagerLine struct {
	data  Line
	check [16]byte
	wear  uint64
}

func newEagerDevice(t testing.TB) *eagerDevice {
	rs, err := ecc.NewRS(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &eagerDevice{rs: rs, lines: make(map[uint64]*eagerLine)}
}

// encode sets l's check bytes from its cells: two RS check symbols per
// 8-byte beat.
func (r *eagerDevice) encode(l *eagerLine) {
	for b := 0; b < 8; b++ {
		r.rs.EncodeTo(l.check[b*2:b*2+2], l.data[b*8:b*8+8])
	}
}

func (r *eagerDevice) line(addr uint64) *eagerLine {
	l := r.lines[addr]
	if l == nil {
		l = &eagerLine{}
		r.encode(l)
		r.lines[addr] = l
	}
	return l
}

func (r *eagerDevice) Write(addr uint64, data *Line) {
	l := r.line(addr)
	l.data = *data
	r.encode(l)
	r.stats.Writes++
	l.wear++
}

func (r *eagerDevice) Read(addr uint64) ReadResult {
	r.stats.Reads++
	l := r.lines[addr]
	if l == nil {
		return ReadResult{}
	}
	buf, check := l.data, l.check
	var corrected, uncorrectable bool
	var bad []int
	for b := 0; b < 8; b++ {
		n, ok := r.rs.Decode(buf[b*8:b*8+8], check[b*2:b*2+2])
		switch {
		case !ok:
			uncorrectable = true
			bad = append(bad, b)
		case n > 0:
			corrected = true
		}
	}
	if corrected {
		r.stats.CorrectedLines++
		l.data = buf
		for b := 0; b < 8; b++ {
			if !slices.Contains(bad, b) {
				r.rs.EncodeTo(l.check[b*2:b*2+2], l.data[b*8:b*8+8])
			}
		}
	}
	if uncorrectable {
		r.stats.UncorrectableHits++
	}
	return ReadResult{Data: buf, Corrected: corrected, Uncorrectable: uncorrectable, BadWords: bad}
}

func (r *eagerDevice) ReadRaw(addr uint64) Line {
	if l := r.lines[addr]; l != nil {
		return l.data
	}
	return Line{}
}

func (r *eagerDevice) WearOf(addr uint64) uint64 {
	if l := r.lines[addr]; l != nil {
		return l.wear
	}
	return 0
}

func (r *eagerDevice) FlipBit(addr uint64, bit uint) {
	r.line(addr - addr%LineSize).data[addr%LineSize] ^= 1 << (bit % 8)
}

func (r *eagerDevice) FlipCheckBit(addr uint64, byteIdx int, bit uint) {
	r.line(addr).check[byteIdx%16] ^= 1 << (bit % 8)
}

func (r *eagerDevice) CorruptWord(addr uint64, w int) {
	l := r.line(addr)
	l.data[w%8*8] ^= 0x01
	l.data[w%8*8+3] ^= 0x80
}

func (r *eagerDevice) ClearFaults() {
	for _, l := range r.lines {
		r.encode(l)
	}
}

// touched lists the materialized line addresses in ascending order.
func (r *eagerDevice) touched() []uint64 {
	var addrs []uint64
	for a := range r.lines {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs
}

// fuzzDeviceLines is the fuzz device's size: two directory nodes and the
// first pages of a third, so the scripts reach every boundary the storage
// has.
const fuzzDeviceLines = 2*pageLines*dirPages + 2*pageLines

// fuzzIdx are the lines the fuzz scripts address: either side of a bitmap
// word (a page), of a directory node, and the device's last line.
var fuzzIdx = [8]uint64{
	0, pageLines - 1, pageLines,
	pageLines*dirPages - 1, pageLines * dirPages, pageLines*dirPages + 1,
	2 * pageLines * dirPages, fuzzDeviceLines - 1,
}

// fuzzProbes are the lines whose state is compared after every step: the
// addressed lines and untouched neighbours of each.
var fuzzProbes = func() []uint64 {
	var p []uint64
	for _, idx := range fuzzIdx {
		p = append(p, idx)
		if idx+1 < fuzzDeviceLines {
			p = append(p, idx+1)
		}
		if idx > 0 {
			p = append(p, idx-1)
		}
	}
	return p
}()

// FuzzDeviceMatchesEagerECC runs a script of device operations on a Device
// and on eagerDevice and requires the same results and the same observable
// state after every step. Each step is three bytes: op, selector and
// argument. The selector's low three bits pick the line from fuzzIdx and its
// top three a bit within a byte.
func FuzzDeviceMatchesEagerECC(f *testing.F) {
	// Hand-written: write then fault then read, for each fault kind; a
	// fault on a never-written line; a line with one correctable and one
	// uncorrectable beat, read twice.
	f.Add([]byte{0, 0, 7, 3, 0x40, 9, 2, 0, 0, 4, 0x20, 5, 2, 0, 0, 5, 0, 3, 2, 0, 0, 7, 0, 0, 2, 0, 1})
	f.Add([]byte{6, 1, 0, 2, 1, 1, 8, 1, 0, 1, 1, 4, 2, 1, 0, 6, 1, 0, 2, 1, 0})
	f.Add([]byte{0, 2, 9, 3, 2, 40, 5, 2, 1, 2, 2, 0, 2, 2, 1, 8, 2, 0})
	f.Add([]byte{4, 7, 0, 4, 0xe7, 15, 2, 7, 0, 3, 5, 7, 7, 5, 0, 2, 5, 1})
	// Seeded random scripts.
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*96)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		d, err := NewDevice(fuzzDeviceLines*LineSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := newEagerDevice(t)

		var data Line
		for i := 0; i+2 < len(script); i += 3 {
			op, sel, arg := script[i]%9, script[i+1], script[i+2]
			addr := fuzzIdx[sel%8] * LineSize
			bit := uint(sel >> 5)
			switch op {
			case 0, 1:
				for j := range data {
					data[j] = byte(int(arg)*j + i)
				}
				d.Write(addr, &data)
				ref.Write(addr, &data)
			case 2:
				if arg&1 != 0 {
					// The one-walk read: a line that never
					// materialized is no read at all.
					var got ReadResult
					ok := d.ReadIfMaterialized(addr, &got)
					if want := ref.lines[addr] != nil; ok != want {
						t.Fatalf("step %d: ReadIfMaterialized(%#x) ok %v, eager materialized %v", i/3, addr, ok, want)
					}
					if !ok {
						break
					}
					if want := ref.Read(addr); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: ReadIfMaterialized(%#x) = %+v, eager %+v", i/3, addr, got, want)
					}
					break
				}
				got, want := d.Read(addr), ref.Read(addr)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Read(%#x) = %+v, eager %+v", i/3, addr, got, want)
				}
			case 3:
				d.FlipBit(addr+uint64(arg)%LineSize, bit)
				ref.FlipBit(addr+uint64(arg)%LineSize, bit)
			case 4:
				d.FlipCheckBit(addr, int(arg), bit)
				ref.FlipCheckBit(addr, int(arg), bit)
			case 5:
				d.CorruptWord(addr, int(arg))
				ref.CorruptWord(addr, int(arg))
			case 6:
				d.CorruptLine(addr)
				for w := 0; w < 8; w++ {
					ref.CorruptWord(addr, w)
				}
			case 7:
				d.ClearFaults()
				ref.ClearFaults()
			case 8:
				if got, want := d.ReadRaw(addr), ref.ReadRaw(addr); got != want {
					t.Fatalf("step %d: ReadRaw(%#x) = %x, eager %x", i/3, addr, got, want)
				}
			}
			if got, want := d.Stats(), ref.stats; got != want {
				t.Fatalf("step %d (op %d): Stats %+v, eager %+v", i/3, op, got, want)
			}
			if got, want := d.TouchedLines(), len(ref.lines); got != want {
				t.Fatalf("step %d (op %d): TouchedLines %d, eager %d", i/3, op, got, want)
			}
			for _, k := range fuzzProbes {
				a := k * LineSize
				if got, want := d.ReadRaw(a), ref.ReadRaw(a); got != want {
					t.Fatalf("step %d (op %d): line %d cells %x, eager %x", i/3, op, k, got, want)
				}
				if got, want := d.WearOf(a), ref.WearOf(a); got != want {
					t.Fatalf("step %d (op %d): line %d wear %d, eager %d", i/3, op, k, got, want)
				}
				if got, want := d.Materialized(a), ref.lines[a] != nil; got != want {
					t.Fatalf("step %d (op %d): line %d Materialized %v, eager %v", i/3, op, k, got, want)
				}
			}
			var touched []uint64
			d.ForEachTouched(func(a uint64) { touched = append(touched, a) })
			if want := ref.touched(); !slices.Equal(touched, want) {
				t.Fatalf("step %d (op %d): ForEachTouched %v, eager %v", i/3, op, touched, want)
			}
		}
		// A final read of every line catches check bytes that differ
		// without a read in the script to show it.
		for _, k := range fuzzIdx {
			a := k * LineSize
			if got, want := d.Read(a), ref.Read(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("final Read(%#x) = %+v, eager %+v", a, got, want)
			}
		}
	})
}

// A page keeps its cells at offset 0 and is allocated from the runtime's
// 6144-byte size class, a multiple of 64, so every line is one host cache
// line. A directory entry is the page pointer and two bitmap words: 24 B on
// 64-bit hosts and 20 B where a pointer is 4 B (GOARCH=386), so a directory
// node is 12 KB (10 KB).
func TestPageAndDirEntryLayout(t *testing.T) {
	if off := unsafe.Offsetof(page{}.data); off != 0 {
		t.Fatalf("page data at offset %d, want 0", off)
	}
	if n := unsafe.Sizeof(page{}); n != 5632 {
		t.Fatalf("page is %d bytes, want 5632", n)
	}
	want := map[uintptr]uintptr{8: 24, 4: 20}[unsafe.Sizeof(uintptr(0))]
	if n := unsafe.Sizeof(dirEntry{}); n != want {
		t.Fatalf("dirEntry is %d bytes, want %d with %d-byte pointers", n, want, unsafe.Sizeof(uintptr(0)))
	}
	d, err := NewDevice(pageLines*dirPages*LineSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < pageLines*dirPages; idx += 5 * pageLines {
		d.Write(idx*LineSize, &Line{})
		e, i := d.lookup(idx)
		if a := uintptr(unsafe.Pointer(&e.page.data[i])); a%LineSize != 0 {
			t.Fatalf("line %d cells at %#x, not %d-byte aligned", idx, a, LineSize)
		}
	}
}
