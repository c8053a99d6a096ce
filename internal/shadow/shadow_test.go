package shadow

import (
	"errors"
	"testing"

	"soteria/internal/ctrenc"
	"soteria/internal/ecc"
	"soteria/internal/nvm"
)

// devStore adapts an nvm.Device to the shadow.Store interface.
type devStore struct{ dev *nvm.Device }

func (s devStore) ReadLine(addr uint64) ([nvm.LineSize]byte, error) {
	r := s.dev.Read(addr)
	if r.Uncorrectable {
		return r.Data, errors.New("uncorrectable")
	}
	return r.Data, nil
}

func (s devStore) WriteLine(addr uint64, data *[nvm.LineSize]byte) {
	l := nvm.Line(*data)
	s.dev.Write(addr, &l)
}

func (s devStore) ReadRaw(addr uint64) (nvm.Line, []int, bool) {
	r := s.dev.Read(addr)
	if r.Uncorrectable {
		return s.dev.ReadRaw(addr), r.BadWords, true
	}
	return r.Data, nil, false
}

// layout is one of the table's three entry formats.
type layout struct {
	name    string
	content bool
	dup     bool
}

var layouts = []layout{
	{name: "duplicated-lsb", dup: true},
	{name: "single-lsb"},
	{name: "content", content: true},
}

func newDevice(t testing.TB, codec ecc.Codec) *nvm.Device {
	t.Helper()
	dev, err := nvm.NewDevice(1<<20, codec)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// newTableOn builds a 32-slot table in layout l at address 0 of dev.
func newTableOn(t testing.TB, dev *nvm.Device, l layout) *Table {
	t.Helper()
	eng := ctrenc.MustNewEngine([]byte("shadow-test"))
	const slots = 32
	var tb *Table
	var err error
	if l.content {
		tb, err = NewContentTable(eng, devStore{dev}, 0, slots)
	} else {
		tb, err = NewTable(eng, devStore{dev}, 0, slots, 0, Options{Duplicate: l.dup})
	}
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func sampleEntry(addr uint64) Entry {
	e := Entry{Valid: true, Addr: addr, MAC: 0xCAFEBABE}
	for i := range e.LSBs {
		e.LSBs[i] = uint16(addr) + uint16(i)
	}
	return e
}

// sampleFor returns an entry in tb's format; a content entry carries the
// MAC Write will bind its image with, so a loaded entry compares equal.
func sampleFor(tb *Table, addr uint64) Entry {
	if !tb.content {
		return sampleEntry(addr)
	}
	e := Entry{Valid: true, Addr: addr}
	for i := range e.Image {
		e.Image[i] = byte(addr>>6) + byte(i)
	}
	e.MAC = imageMAC(tb.eng, addr, &e.Image)
	return e
}

// slotLines returns the raw NVM lines of one slot.
func slotLines(tb *Table, dev *nvm.Device, slot uint64) []nvm.Line {
	var out []nvm.Line
	for l := uint64(0); l < tb.linesPerSlot(); l++ {
		out = append(out, dev.ReadRaw(tb.lineAddr(slot)+l*nvm.LineSize))
	}
	return out
}

// putSlotLines writes raw lines into one slot behind the table's back.
func putSlotLines(tb *Table, dev *nvm.Device, slot uint64, lines []nvm.Line) {
	for l := range lines {
		dev.Write(tb.lineAddr(slot)+uint64(l)*nvm.LineSize, &lines[l])
	}
}

func forEachLayout(t *testing.T, f func(t *testing.T, l layout)) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) { f(t, l) })
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l layout) {
		tb := newTableOn(t, newDevice(t, nil), l)
		e := sampleFor(tb, 0x4000)
		if err := tb.Write(3, e); err != nil {
			t.Fatal(err)
		}
		got, ok, err := tb.Load(3)
		if err != nil || !ok {
			t.Fatalf("load: %v %v", ok, err)
		}
		if got != e {
			t.Fatalf("got %+v want %+v", got, e)
		}
		// Untouched slot loads as invalid without error.
		if _, ok, err := tb.Load(4); ok || err != nil {
			t.Fatalf("empty slot: ok=%v err=%v", ok, err)
		}
	})
}

func TestInvalidateSkipsRedundantWrites(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l layout) {
		tb := newTableOn(t, newDevice(t, nil), l)
		if err := tb.Invalidate(5); err != nil {
			t.Fatal(err)
		}
		if tb.Stats().Invalidations != 0 {
			t.Fatal("invalidating an empty slot should be free")
		}
		_ = tb.Write(5, sampleFor(tb, 0x100))
		if err := tb.Invalidate(5); err != nil {
			t.Fatal(err)
		}
		if tb.Stats().Invalidations != 1 {
			t.Fatal("invalidation not counted")
		}
		if err := tb.Invalidate(5); err != nil || tb.Stats().Invalidations != 1 {
			t.Fatalf("second invalidation: err=%v count=%d", err, tb.Stats().Invalidations)
		}
		if _, ok, _ := tb.Load(5); ok {
			t.Fatal("slot still valid after invalidation")
		}
		if err := tb.Invalidate(int(tb.Slots())); err == nil {
			t.Fatal("out-of-range slot accepted")
		}
	})
}

func TestHalfRepairFromDuplicate(t *testing.T) {
	dev, err := nvm.NewDevice(1<<20, secded())
	if err != nil {
		t.Fatal(err)
	}
	tb := newTableOn(t, dev, layouts[0])
	e := sampleEntry(0x8000)
	if err := tb.Write(7, e); err != nil {
		t.Fatal(err)
	}
	// Kill one codeword in the first half of slot 7's line.
	dev.CorruptWord(7*nvm.LineSize, 1)
	got, ok, err := tb.Load(7)
	if err != nil || !ok || got != e {
		t.Fatalf("half repair failed: %+v ok=%v err=%v", got, ok, err)
	}
	if tb.Stats().HalfRepairs != 1 {
		t.Fatal("repair not counted")
	}
	// Second half damage also recovers.
	dev.CorruptWord(7*nvm.LineSize, 6)
	got, ok, err = tb.Load(7)
	if err != nil || !ok || got != e {
		t.Fatalf("second-half repair failed: %v", err)
	}
}

func TestBothHalvesDeadIsLost(t *testing.T) {
	dev, err := nvm.NewDevice(1<<20, secded())
	if err != nil {
		t.Fatal(err)
	}
	tb := newTableOn(t, dev, layouts[0])
	_ = tb.Write(2, sampleEntry(0x40))
	dev.CorruptWord(2*nvm.LineSize, 0)
	dev.CorruptWord(2*nvm.LineSize, 5)
	_, _, err = tb.Load(2)
	if err == nil {
		t.Fatal("entry with both halves dead recovered")
	}
	if tb.Stats().LostEntries != 1 {
		t.Fatal("loss not counted")
	}
}

// Without duplicated halves a dead codeword in any line of the slot loses
// the entry: the single-copy LSB entry, and either line of a content entry.
func TestAnubisBaselineLosesEntryOnUncorrectable(t *testing.T) {
	for _, l := range layouts {
		if l.dup {
			continue
		}
		lines := uint64(1)
		if l.content {
			lines = ContentLinesPerSlot
		}
		for line := uint64(0); line < lines; line++ {
			dev := newDevice(t, secded())
			tb := newTableOn(t, dev, l)
			_ = tb.Write(2, sampleFor(tb, 0x40))
			dev.CorruptWord(tb.lineAddr(2)+line*nvm.LineSize, 0)
			if _, _, err := tb.Load(2); err == nil {
				t.Fatalf("%s: entry with a dead codeword in line %d recovered", l.name, line)
			}
			if got := tb.Stats(); got.LostEntries != 1 || got.HalfRepairs != 0 {
				t.Fatalf("%s: stats %+v, want one lost entry and no repair", l.name, got)
			}
		}
	}
}

func TestReplayOfOldEntryDetectedByBMT(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l layout) {
		dev := newDevice(t, nil)
		tb := newTableOn(t, dev, l)
		_ = tb.Write(9, sampleFor(tb, 0x1000))
		old := slotLines(tb, dev, 9)
		_ = tb.Write(9, sampleFor(tb, 0x2000))
		// Attacker replays the old slot, line by line and as a whole.
		for i := range old {
			cur := slotLines(tb, dev, 9)
			dev.Write(tb.lineAddr(9)+uint64(i)*nvm.LineSize, &old[i])
			if _, _, err := tb.Load(9); err == nil {
				t.Fatalf("replayed line %d passed BMT verification", i)
			}
			putSlotLines(tb, dev, 9, cur)
		}
		putSlotLines(tb, dev, 9, old)
		if _, _, err := tb.Load(9); err == nil {
			t.Fatal("replayed shadow entry passed BMT verification")
		}
	})
}

// Two entries, each self-consistent, must not load once their slots are
// swapped: the BMT binds each line to its index.
func TestCrossSlotSwapDetectedByBMT(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l layout) {
		dev := newDevice(t, nil)
		tb := newTableOn(t, dev, l)
		if err := tb.Write(1, sampleFor(tb, 0x1000)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Write(5, sampleFor(tb, 0x2000)); err != nil {
			t.Fatal(err)
		}
		a, b := slotLines(tb, dev, 1), slotLines(tb, dev, 5)
		putSlotLines(tb, dev, 1, b)
		putSlotLines(tb, dev, 5, a)
		for _, slot := range []uint64{1, 5} {
			if _, ok, err := tb.Load(slot); err == nil || ok {
				t.Fatalf("entry swapped into slot %d loads", slot)
			}
		}
	})
}

// TestCrashRecoversEntries: Crash drops the valid flags and stats, and
// LoadAllSlots brings back every entry from NVM through the surviving
// on-chip BMT — except a slot whose old lines were replayed across the
// crash, which it reports as lost.
func TestCrashRecoversEntries(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l layout) {
		dev := newDevice(t, nil)
		tb := newTableOn(t, dev, l)
		for i := 0; i < 10; i++ {
			if err := tb.Write(i, sampleFor(tb, uint64(i)*0x40)); err != nil {
				t.Fatal(err)
			}
		}
		const replayed = 10
		if err := tb.Write(replayed, sampleFor(tb, 0x1000)); err != nil {
			t.Fatal(err)
		}
		old := slotLines(tb, dev, replayed)
		if err := tb.Write(replayed, sampleFor(tb, 0x2000)); err != nil {
			t.Fatal(err)
		}
		tb.Crash()
		if v := tb.ValidSlots(); len(v) != 0 {
			t.Fatalf("valid slots after crash: %v", v)
		}
		if s := tb.Stats(); s != (Stats{}) {
			t.Fatalf("stats after crash: %+v", s)
		}
		putSlotLines(tb, dev, replayed, old)
		entries, lost := tb.LoadAllSlots()
		if len(lost) != 1 || lost[0] != replayed {
			t.Fatalf("lost slots: %v, want [%d]", lost, replayed)
		}
		if len(entries) != 10 {
			t.Fatalf("recovered %d entries, want 10", len(entries))
		}
		for i, se := range entries {
			if se.Slot != uint64(i) || se.Entry != sampleFor(tb, uint64(i)*0x40) {
				t.Fatalf("entry %d: slot %d %+v", i, se.Slot, se.Entry)
			}
		}
		if v := tb.ValidSlots(); len(v) != 10 {
			t.Fatalf("valid slots after load: %v", v)
		}
		if s := tb.Stats(); s.LostEntries != 1 || s.EntryWrites != 0 || s.Invalidations != 0 {
			t.Fatalf("stats after load: %+v", s)
		}
	})
}

func TestContentMACBindsAddress(t *testing.T) {
	eng := ctrenc.MustNewEngine([]byte("x"))
	var line [nvm.LineSize]byte
	line[0] = 1
	if ContentMAC(eng, 0x40, &line) == ContentMAC(eng, 0x80, &line) {
		t.Fatal("shadow MAC ignores address")
	}
	// Stored-MAC bytes (56..63) must not affect the content MAC.
	m := ContentMAC(eng, 0x40, &line)
	line[60] = 0xFF
	if ContentMAC(eng, 0x40, &line) != m {
		t.Fatal("shadow MAC covers the stored MAC field")
	}
}

func secded() ecc.Codec { return ecc.SECDED{} }

func TestBothHalvesFaultedAcrossLoads(t *testing.T) {
	// Both halves faulted, but in separate codewords of each half:
	// word 0 (half one) and word 7 (half two) dead means neither half
	// survives intact, so the entry is unrecoverable even with
	// duplication — and must be reported as lost, not silently dropped.
	dev, err := nvm.NewDevice(1<<20, secded())
	if err != nil {
		t.Fatal(err)
	}
	tb := newTableOn(t, dev, layouts[0])
	if err := tb.Write(9, sampleEntry(0x1000)); err != nil {
		t.Fatal(err)
	}
	dev.CorruptWord(9*nvm.LineSize, 0)
	dev.CorruptWord(9*nvm.LineSize, 7)
	if _, _, err := tb.Load(9); err == nil {
		t.Fatal("entry with faults in both halves recovered")
	}
	if got := tb.Stats().LostEntries; got != 1 {
		t.Fatalf("LostEntries = %d, want 1", got)
	}
	// Other slots stay loadable: the loss is contained to one entry.
	if err := tb.Write(10, sampleEntry(0x2000)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tb.Load(10); err != nil || !ok {
		t.Fatalf("unrelated slot affected: ok=%v err=%v", ok, err)
	}
}

func TestDisableHalfRepairDropsRecoverableEntry(t *testing.T) {
	// The debug flag must turn an otherwise-recoverable single-half fault
	// into a lost entry — this is the deliberately-broken recovery the
	// chaos harness proves it can catch.
	dev, err := nvm.NewDevice(1<<20, secded())
	if err != nil {
		t.Fatal(err)
	}
	eng := ctrenc.MustNewEngine([]byte("shadow-test"))
	const slots = 32
	tb, err := NewTable(eng, devStore{dev}, 0, slots, 0,
		Options{Duplicate: true, DisableHalfRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Write(3, sampleEntry(0x600)); err != nil {
		t.Fatal(err)
	}
	dev.CorruptWord(3*nvm.LineSize, 1)
	if _, _, err := tb.Load(3); err == nil {
		t.Fatal("half-dead entry recovered despite DisableHalfRepair")
	}
	if got := tb.Stats().LostEntries; got != 1 {
		t.Fatalf("LostEntries = %d, want 1", got)
	}
	if got := tb.Stats().HalfRepairs; got != 0 {
		t.Fatalf("HalfRepairs = %d, want 0", got)
	}
}

func BenchmarkShadowWrite(b *testing.B) {
	dev, err := nvm.NewDevice(1<<20, nil)
	if err != nil {
		b.Fatal(err)
	}
	const slots = 8192
	tb, err := NewTable(ctrenc.MustNewEngine([]byte("shadow-bench")), devStore{dev}, 0, slots, 0, Options{Duplicate: true})
	if err != nil {
		b.Fatal(err)
	}
	e := sampleEntry(0x40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LSBs[0] = uint16(i)
		if err := tb.Write(i*2654435761%slots, e); err != nil {
			b.Fatal(err)
		}
	}
}
