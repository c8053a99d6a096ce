package nvm

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"soteria/internal/ecc"
)

// eagerDevice is the device with no deferred check bytes: every write
// encodes, every read decodes, every new line is encoded as zeroes. It keeps
// its lines in a map and shares no storage or fault code with Device, so
// FuzzDeviceMatchesEagerECC can hold the deferred device to it op for op.
type eagerDevice struct {
	codec        ecc.Codec
	lines        map[uint64]*eagerLine
	stuck        map[uint64]*eagerStuck
	ecpBudget    int
	ecp          map[uint64][]ecpEntry
	ecpExhausted uint64
	stats        Stats
}

type eagerLine struct {
	data  Line
	check []byte
	wear  uint64
}

// eagerStuck is a line's stuck cells: bits in mask read as the bits of val.
type eagerStuck struct{ mask, val Line }

func newEagerDevice(codec ecc.Codec, ecpBudget int) *eagerDevice {
	return &eagerDevice{
		codec:     codec,
		lines:     make(map[uint64]*eagerLine),
		stuck:     make(map[uint64]*eagerStuck),
		ecpBudget: ecpBudget,
		ecp:       make(map[uint64][]ecpEntry),
	}
}

func (r *eagerDevice) line(addr uint64) *eagerLine {
	l := r.lines[addr]
	if l == nil {
		l = &eagerLine{}
		l.check = r.codec.Encode(l.data[:])
		r.lines[addr] = l
	}
	return l
}

func (r *eagerDevice) assertStuck(addr uint64, data *Line) {
	if s := r.stuck[addr]; s != nil {
		for i := range data {
			data[i] = data[i]&^s.mask[i] | s.val[i]&s.mask[i]
		}
	}
}

func (r *eagerDevice) Write(addr uint64, data *Line) {
	l := r.line(addr)
	l.data = *data
	l.check = r.codec.Encode(l.data[:])
	if r.stuck[addr] != nil {
		r.assertStuck(addr, &l.data)
		if r.ecpBudget > 0 {
			var entries []ecpEntry
			for bit := 0; bit < LineSize*8; bit++ {
				want := data[bit/8] >> (bit % 8) & 1
				if l.data[bit/8]>>(bit%8)&1 != want {
					entries = append(entries, ecpEntry{bit: uint16(bit), val: want == 1})
				}
			}
			switch {
			case len(entries) == 0:
				delete(r.ecp, addr)
			case len(entries) > r.ecpBudget:
				r.ecpExhausted++
				delete(r.ecp, addr)
			default:
				r.ecp[addr] = entries
			}
		}
	} else if r.ecpBudget > 0 {
		delete(r.ecp, addr)
	}
	r.stats.Writes++
	l.wear++
}

func (r *eagerDevice) Read(addr uint64) ReadResult {
	r.stats.Reads++
	l := r.lines[addr]
	if l == nil {
		return ReadResult{}
	}
	buf := l.data
	if r.ecpBudget > 0 {
		for _, e := range r.ecp[addr] {
			buf[e.bit/8] &^= 1 << (e.bit % 8)
			if e.val {
				buf[e.bit/8] |= 1 << (e.bit % 8)
			}
		}
	}
	res := r.codec.Decode(buf[:], l.check)
	if res.Corrected {
		r.stats.CorrectedLines++
		l.data = buf
		l.check = r.codec.Encode(buf[:])
	}
	if res.Uncorrectable {
		r.stats.UncorrectableHits++
	}
	return ReadResult{Data: buf, Corrected: res.Corrected, Uncorrectable: res.Uncorrectable, BadWords: res.BadWords}
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
	if l := r.line(addr); len(l.check) != 0 {
		l.check[byteIdx%len(l.check)] ^= 1 << (bit % 8)
	}
}

func (r *eagerDevice) CorruptWord(addr uint64, w int) {
	l := r.line(addr)
	l.data[w%8*8] ^= 0x01
	l.data[w%8*8+3] ^= 0x80
}

func (r *eagerDevice) StickBits(addr uint64, mask, val *Line) {
	l := r.line(addr)
	s := r.stuck[addr]
	if s == nil {
		s = new(eagerStuck)
		r.stuck[addr] = s
	}
	for i := range mask {
		s.mask[i] |= mask[i]
		s.val[i] = s.val[i]&^mask[i] | val[i]&mask[i]
	}
	r.assertStuck(addr, &l.data)
}

func (r *eagerDevice) ClearFaults() {
	clear(r.stuck)
	for _, l := range r.lines {
		l.check = r.codec.Encode(l.data[:])
	}
}

func (r *eagerDevice) ECPStats() ECPStats {
	s := ECPStats{Exhausted: r.ecpExhausted}
	for _, entries := range r.ecp {
		s.LinesRepaired++
		s.PointersUsed += len(entries)
	}
	return s
}

// fuzzLines is how many lines the fuzz scripts address; the device holds
// twice as many, so some stay untouched.
const fuzzLines = 4

// FuzzDeviceMatchesEagerECC runs a script of device operations on a Device
// and on eagerDevice and requires the same results and the same observable
// state after every step. Each step is three bytes: op, selector and
// argument. The selector's low two bits pick the line, its top three a bit
// within a byte, and its top six are a stuck-cell mask.
func FuzzDeviceMatchesEagerECC(f *testing.F) {
	// Hand-written: write then fault then read, for each fault kind.
	f.Add(uint8(0), uint8(0), []byte{0, 1, 7, 4, 1, 3, 1, 1, 0, 0, 2, 9, 3, 0x42, 9, 1, 2, 0})
	f.Add(uint8(0), uint8(1), []byte{0, 0, 5, 7, 0x20, 3, 0, 0, 5, 1, 0, 0, 7, 0x40, 70, 0, 0, 6, 1, 0, 0})
	f.Add(uint8(1), uint8(2), []byte{7, 0, 9, 7, 0x21, 9, 0, 1, 4, 1, 1, 0, 8, 0, 0, 1, 1, 0, 0, 1, 4, 1, 1, 0})
	f.Add(uint8(1), uint8(0), []byte{6, 2, 0, 1, 2, 0, 8, 0, 0, 1, 2, 0, 5, 3, 4, 1, 3, 0, 2, 3, 0})
	// Seeded random scripts over every codec and ECP setting.
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*96)
		rng.Read(script)
		f.Add(uint8(seed), uint8(seed/2), script)
	}
	codecs := []ecc.Codec{ecc.NewChipkill(), ecc.SECDED{}, ecc.NoECC{}}
	f.Fuzz(func(t *testing.T, codecSel, ecpSel uint8, script []byte) {
		codec := codecs[int(codecSel)%len(codecs)]
		budget := []int{0, 2, 6}[int(ecpSel)%3]
		d, err := NewDevice(2*fuzzLines*LineSize, codec)
		if err != nil {
			t.Fatal(err)
		}
		if budget > 0 {
			d.EnableECP(budget)
		}
		ref := newEagerDevice(codec, budget)

		var data, mask, val Line
		for i := 0; i+2 < len(script); i += 3 {
			op, sel, arg := script[i]%10, script[i+1], script[i+2]
			addr := uint64(sel%fuzzLines) * LineSize
			bit := uint(sel >> 5)
			switch op {
			case 0, 1:
				for j := range data {
					data[j] = byte(int(arg)*j + i)
				}
				d.Write(addr, &data)
				ref.Write(addr, &data)
			case 2:
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
				mask, val = Line{}, Line{}
				mask[arg%LineSize] = sel >> 2 // up to six bits, or none
				val[arg%LineSize] = arg
				d.StickBits(addr, &mask, &val)
				ref.StickBits(addr, &mask, &val)
			case 8:
				d.ClearFaults()
				ref.ClearFaults()
			case 9:
				if got, want := d.ReadRaw(addr), ref.ReadRaw(addr); got != want {
					t.Fatalf("step %d: ReadRaw(%#x) = %x, eager %x", i/3, addr, got, want)
				}
			}
			if got, want := d.Stats(), ref.stats; got != want {
				t.Fatalf("step %d (op %d): Stats %+v, eager %+v", i/3, op, got, want)
			}
			if got, want := d.ECPStats(), ref.ECPStats(); got != want {
				t.Fatalf("step %d (op %d): ECPStats %+v, eager %+v", i/3, op, got, want)
			}
			if got, want := d.TouchedLines(), len(ref.lines); got != want {
				t.Fatalf("step %d (op %d): TouchedLines %d, eager %d", i/3, op, got, want)
			}
			for k := uint64(0); k < 2*fuzzLines; k++ {
				a := k * LineSize
				if got, want := d.ReadRaw(a), ref.ReadRaw(a); got != want {
					t.Fatalf("step %d (op %d): line %d cells %x, eager %x", i/3, op, k, got, want)
				}
				if got, want := d.WearOf(a), ref.WearOf(a); got != want {
					t.Fatalf("step %d (op %d): line %d wear %d, eager %d", i/3, op, k, got, want)
				}
			}
		}
		// A final read of every line catches check bytes that differ
		// without a read in the script to show it.
		for k := uint64(0); k < fuzzLines; k++ {
			a := k * LineSize
			if got, want := d.Read(a), ref.Read(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("final Read(%#x) = %+v, eager %+v", a, got, want)
			}
		}
	})
}

// The fresh bit must fit the record's padding: peak RSS scales with it.
func TestStoredLineStays96Bytes(t *testing.T) {
	if n := unsafe.Sizeof(storedLine{}); n != 96 {
		t.Fatalf("storedLine is %d bytes, want 96", n)
	}
}
