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

func setup(t *testing.T, dup bool) (*Table, *nvm.Device) {
	t.Helper()
	dev, err := nvm.NewDevice(1<<20, nil) // SECDED added per-test where needed
	if err != nil {
		t.Fatal(err)
	}
	return setupOn(t, dev, dup)
}

func setupOn(t *testing.T, dev *nvm.Device, dup bool) (*Table, *nvm.Device) {
	t.Helper()
	eng := ctrenc.MustNewEngine([]byte("shadow-test"))
	const slots = 32
	tb, err := NewTable(eng, devStore{dev}, 0, slots, 0, Options{Duplicate: dup})
	if err != nil {
		t.Fatal(err)
	}
	return tb, dev
}

func sampleEntry(addr uint64) Entry {
	e := Entry{Valid: true, Addr: addr, MAC: 0xCAFEBABE}
	for i := range e.LSBs {
		e.LSBs[i] = uint16(addr) + uint16(i)
	}
	return e
}

func TestWriteLoadRoundTrip(t *testing.T) {
	tb, _ := setup(t, true)
	e := sampleEntry(0x4000)
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
}

func TestInvalidateSkipsRedundantWrites(t *testing.T) {
	tb, _ := setup(t, true)
	if err := tb.Invalidate(5); err != nil {
		t.Fatal(err)
	}
	if tb.Stats().Invalidations != 0 {
		t.Fatal("invalidating an empty slot should be free")
	}
	_ = tb.Write(5, sampleEntry(0x100))
	if err := tb.Invalidate(5); err != nil {
		t.Fatal(err)
	}
	if tb.Stats().Invalidations != 1 {
		t.Fatal("invalidation not counted")
	}
	if _, ok, _ := tb.Load(5); ok {
		t.Fatal("slot still valid after invalidation")
	}
}

func TestHalfRepairFromDuplicate(t *testing.T) {
	dev, err := nvm.NewDevice(1<<20, secded())
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := setupOn(t, dev, true)
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
	tb, _ := setupOn(t, dev, true)
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

func TestAnubisBaselineLosesEntryOnUncorrectable(t *testing.T) {
	dev, err := nvm.NewDevice(1<<20, secded())
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := setupOn(t, dev, false)
	_ = tb.Write(2, sampleEntry(0x40))
	dev.CorruptWord(2*nvm.LineSize, 0)
	if _, _, err := tb.Load(2); err == nil {
		t.Fatal("non-duplicated entry with dead codeword recovered")
	}
}

func TestReplayOfOldEntryDetectedByBMT(t *testing.T) {
	tb, dev := setup(t, true)
	e1 := sampleEntry(0x1000)
	e2 := sampleEntry(0x2000)
	_ = tb.Write(9, e1)
	old := dev.ReadRaw(9 * nvm.LineSize)
	_ = tb.Write(9, e2)
	// Attacker replays the old entry line.
	dev.Write(9*nvm.LineSize, &old)
	if _, _, err := tb.Load(9); err == nil {
		t.Fatal("replayed shadow entry passed BMT verification")
	}
}

func TestAttachAfterCrashRecoversEntries(t *testing.T) {
	tb, dev := setup(t, true)
	eng := ctrenc.MustNewEngine([]byte("shadow-test"))
	for i := 0; i < 10; i++ {
		if err := tb.Write(i, sampleEntry(uint64(i)*0x40)); err != nil {
			t.Fatal(err)
		}
	}
	// Slot 10 is rewritten before the crash, and its old line is replayed
	// into NVM across it.
	const replayed = 10
	if err := tb.Write(replayed, sampleEntry(0x1000)); err != nil {
		t.Fatal(err)
	}
	old := dev.ReadRaw(replayed * nvm.LineSize)
	if err := tb.Write(replayed, sampleEntry(0x2000)); err != nil {
		t.Fatal(err)
	}
	// "Crash": the table's volatile state is gone; its BMT survives on
	// chip and the table reattaches to it.
	tree := tb.Tree()
	dev.Write(replayed*nvm.LineSize, &old)
	tb2 := Attach(eng, devStore{dev}, 0, tb.Slots(), tree, Options{Duplicate: true})
	if _, _, err := tb2.Load(replayed); err == nil {
		t.Fatal("entry replayed across the crash passed BMT verification")
	}
	entries, lost := tb2.LoadAll()
	if len(lost) != 1 || lost[0] != replayed {
		t.Fatalf("lost slots: %v, want [%d]", lost, replayed)
	}
	if len(entries) != 10 {
		t.Fatalf("recovered %d entries, want 10", len(entries))
	}
	for i, e := range entries {
		if e.Addr != uint64(i)*0x40 {
			t.Fatalf("entry %d addr %#x", i, e.Addr)
		}
	}
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
	tb, _ := setupOn(t, dev, true)
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

// Two content-table entries, each a consistent header/image pair, must not
// load once their slots are swapped: the BMT binds each line to its slot.
func TestContentTableDetectsCrossSlotSwap(t *testing.T) {
	dev, err := nvm.NewDevice(1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ctrenc.MustNewEngine([]byte("shadow-test"))
	tb, err := NewContentTable(eng, devStore{dev}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var x, y nvm.Line
	x[0], y[0] = 0xA, 0xB
	if err := tb.Write(1, 0x1000, &x); err != nil {
		t.Fatal(err)
	}
	if err := tb.Write(5, 0x2000, &y); err != nil {
		t.Fatal(err)
	}
	for line := uint64(0); line < ContentLinesPerSlot; line++ {
		a := tb.headerAddr(1) + line*nvm.LineSize
		b := tb.headerAddr(5) + line*nvm.LineSize
		la, lb := dev.ReadRaw(a), dev.ReadRaw(b)
		dev.Write(a, &lb)
		dev.Write(b, &la)
	}
	for _, slot := range []uint64{1, 5} {
		if _, _, ok, err := tb.Load(slot); err == nil || ok {
			t.Fatalf("entry swapped into content slot %d loads", slot)
		}
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
