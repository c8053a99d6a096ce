package nvm

import (
	"testing"
	"testing/quick"

	"soteria/internal/ecc"
)

func newDev(t *testing.T, codec ecc.Codec) *Device {
	t.Helper()
	d, err := NewDevice(1<<20, codec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceRejectsBadCapacity(t *testing.T) {
	if _, err := NewDevice(0, nil); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewDevice(100, nil); err == nil {
		t.Fatal("unaligned capacity accepted")
	}
}

func TestReadOfUnwrittenLineIsZero(t *testing.T) {
	d := newDev(t, ecc.SECDED{})
	res := d.Read(128)
	if res.Corrected || res.Uncorrectable {
		t.Fatalf("unexpected flags: %+v", res)
	}
	if res.Data != (Line{}) {
		t.Fatal("unwritten line not zero")
	}
	if d.TouchedLines() != 0 {
		t.Fatal("read materialized storage")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDev(t, ecc.SECDED{})
	f := func(seed [LineSize]byte, lineIdx uint16) bool {
		addr := uint64(lineIdx) % d.Lines() * LineSize
		l := Line(seed)
		d.Write(addr, &l)
		res := d.Read(addr)
		return res.Data == l && !res.Corrected && !res.Uncorrectable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitIsCorrectedBySECDED(t *testing.T) {
	d := newDev(t, ecc.SECDED{})
	var l Line
	for i := range l {
		l[i] = byte(i)
	}
	d.Write(0, &l)
	d.FlipBit(17, 3)
	res := d.Read(0)
	if !res.Corrected || res.Uncorrectable {
		t.Fatalf("flip not corrected: %+v", res)
	}
	if res.Data != l {
		t.Fatal("corrected data wrong")
	}
	// Demand scrub: a second read sees a clean line.
	res = d.Read(0)
	if res.Corrected || res.Uncorrectable {
		t.Fatalf("scrub did not persist correction: %+v", res)
	}
	if d.Stats().CorrectedLines != 1 {
		t.Fatalf("corrected-lines stat = %d, want 1", d.Stats().CorrectedLines)
	}
}

func TestCorruptWordIsUncorrectable(t *testing.T) {
	for _, codec := range []ecc.Codec{ecc.SECDED{}, ecc.NewChipkill()} {
		d := newDev(t, codec)
		var l Line
		d.Write(64, &l)
		d.CorruptWord(64, 2)
		res := d.Read(64)
		if !res.Uncorrectable {
			t.Fatalf("%s: corrupt word not flagged", codec.Name())
		}
		if len(res.BadWords) != 1 || res.BadWords[0] != 2 {
			t.Fatalf("%s: bad words %v, want [2]", codec.Name(), res.BadWords)
		}
		if d.Stats().UncorrectableHits != 1 {
			t.Fatalf("%s: uncorrectable stat wrong", codec.Name())
		}
	}
}

// A line with an uncorrectable error in every word reports all eight
// words bad under either codec, without allocating: BadWords is the
// device's own buffer, and it is nil again on the next clean read.
func TestCorruptLineAllWordsBad(t *testing.T) {
	for _, codec := range []ecc.Codec{ecc.NewChipkill(), ecc.SECDED{}} {
		d := newDev(t, codec)
		var l Line
		d.Write(0, &l)
		d.Write(64, &l)
		d.CorruptLine(0)
		var res ReadResult
		if n := testing.AllocsPerRun(100, func() { res = d.Read(0) }); n != 0 {
			t.Fatalf("%s: uncorrectable Read allocates %v times", codec.Name(), n)
		}
		if !res.Uncorrectable || len(res.BadWords) != 8 || res.BadWords[0] != 0 || res.BadWords[7] != 7 {
			t.Fatalf("%s: corrupt line: %+v, want every word bad", codec.Name(), res)
		}
		d.ClearFaults()
		if res := d.Read(64); res.BadWords != nil {
			t.Fatalf("%s: clean read reports bad words %v", codec.Name(), res.BadWords)
		}
	}
}

func TestOverwriteHealsInjectedFault(t *testing.T) {
	d := newDev(t, ecc.SECDED{})
	var l Line
	d.Write(0, &l)
	d.CorruptWord(0, 0)
	l[0] = 0xAB
	d.Write(0, &l) // transient fault overwritten
	res := d.Read(0)
	if res.Uncorrectable || res.Corrected || res.Data != l {
		t.Fatalf("overwrite did not heal: %+v", res)
	}
}

func TestStuckBitsPersistAcrossWrites(t *testing.T) {
	d := newDev(t, ecc.SECDED{})
	var mask, val Line
	mask[5] = 0x0F
	val[5] = 0x0A
	d.StickBits(0, &mask, &val)
	var l Line
	l[5] = 0xF0
	d.Write(0, &l)
	res := d.Read(0)
	// Stored byte 5 = intended high nibble | stuck low nibble = 0xFA;
	// check bytes cover 0xF0, so ECC sees a multi-bit mismatch.
	raw := d.ReadRaw(0)
	if raw[5] != 0xFA {
		t.Fatalf("stuck cells not asserted: %#x", raw[5])
	}
	if !res.Corrected && !res.Uncorrectable {
		t.Fatal("stuck-at corruption invisible to ECC")
	}
}

func TestWearTracking(t *testing.T) {
	d := newDev(t, nil)
	var l Line
	for i := 0; i < 5; i++ {
		d.Write(192, &l)
	}
	if d.WearOf(192) != 5 || d.WearOf(200) != 5 {
		t.Fatalf("wear = %d, want 5", d.WearOf(192))
	}
	if d.WearOf(0) != 0 {
		t.Fatal("untouched line has wear")
	}
}

func TestNoECCPassesCorruptionThrough(t *testing.T) {
	d := newDev(t, ecc.NoECC{})
	var l Line
	d.Write(0, &l)
	d.FlipBit(0, 0)
	res := d.Read(0)
	if res.Corrected || res.Uncorrectable {
		t.Fatal("NoECC reported a flag")
	}
	if res.Data[0] != 1 {
		t.Fatal("corruption did not pass through")
	}
}

func TestPanicsOnBadAddress(t *testing.T) {
	d := newDev(t, nil)
	for _, fn := range []func(){
		func() { d.Read(13) },
		func() { var l Line; d.Write(1<<20, &l) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
