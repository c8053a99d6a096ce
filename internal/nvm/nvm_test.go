package nvm

import (
	"testing"
	"testing/quick"
)

// newDev returns a 1 MB device with its own Chipkill codec.
func newDev(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(1<<20, nil)
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
	d := newDev(t)
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
	d := newDev(t)
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

func TestFlipBitIsCorrected(t *testing.T) {
	d := newDev(t)
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
	d := newDev(t)
	var l Line
	d.Write(64, &l)
	d.CorruptWord(64, 2)
	res := d.Read(64)
	if !res.Uncorrectable {
		t.Fatal("corrupt word not flagged")
	}
	if len(res.BadWords) != 1 || res.BadWords[0] != 2 {
		t.Fatalf("bad words %v, want [2]", res.BadWords)
	}
	if d.Stats().UncorrectableHits != 1 {
		t.Fatal("uncorrectable stat wrong")
	}
}

// The demand scrub of a read that corrects one beat must not re-encode a
// beat it could not correct: the next read still reports that word bad.
func TestScrubKeepsUncorrectableWordBad(t *testing.T) {
	d := newDev(t)
	l := Line{}
	for i := range l {
		l[i] = 0xff
	}
	d.Write(0, &l)
	d.FlipBit(40, 0)
	d.CorruptWord(0, 1)
	for read := 1; read <= 2; read++ {
		res := d.Read(0)
		if !res.Uncorrectable || len(res.BadWords) != 1 || res.BadWords[0] != 1 {
			t.Fatalf("read %d: %+v, want word 1 bad", read, res)
		}
		if res.Data[40] != 0xff {
			t.Fatalf("read %d: corrected byte 40 = %#x", read, res.Data[40])
		}
	}
}

// A line with an uncorrectable error in every word reports all eight
// words bad without allocating: BadWords is the device's own buffer, and it
// is nil again on the next clean read.
func TestCorruptLineAllWordsBad(t *testing.T) {
	d := newDev(t)
	var l Line
	d.Write(0, &l)
	d.Write(64, &l)
	d.CorruptLine(0)
	var res ReadResult
	if n := testing.AllocsPerRun(100, func() { res = d.Read(0) }); n != 0 {
		t.Fatalf("uncorrectable Read allocates %v times", n)
	}
	if !res.Uncorrectable || len(res.BadWords) != 8 || res.BadWords[0] != 0 || res.BadWords[7] != 7 {
		t.Fatalf("corrupt line: %+v, want every word bad", res)
	}
	d.ClearFaults()
	if res := d.Read(64); res.BadWords != nil {
		t.Fatalf("clean read reports bad words %v", res.BadWords)
	}
}

func TestOverwriteHealsInjectedFault(t *testing.T) {
	d := newDev(t)
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

func TestWearTracking(t *testing.T) {
	d := newDev(t)
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

func TestPanicsOnBadAddress(t *testing.T) {
	d := newDev(t)
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
