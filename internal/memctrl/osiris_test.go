package memctrl

import (
	"testing"
	"testing/quick"

	"soteria/internal/ctrenc"
)

func TestRecoverValueFindsTruth(t *testing.T) {
	f := func(stale uint64, deltaRaw uint8) bool {
		stale &= 1<<40 - 1 // keep additions far from overflow
		delta := uint64(deltaRaw % (osirisLimit + 1))
		truth := stale + delta
		v, ok := recoverValue(stale, osirisLimit, func(c uint64) bool { return c == truth })
		return ok && v == truth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverValueFailsBeyondLimit(t *testing.T) {
	truth := uint64(100)
	_, ok := recoverValue(90, 8, func(c uint64) bool { return c == truth })
	if ok {
		t.Fatal("recovered a counter 10 increments ahead with limit 8")
	}
}

func TestRestoreLSB(t *testing.T) {
	cases := []struct {
		stale uint64
		lsb   uint16
		want  uint64
	}{
		{0x12345, 0x2345, 0x12345},                             // unchanged
		{0x12345, 0x2350, 0x12350},                             // advanced, no carry
		{0x1FFF0, 0x0005, 0x20005},                             // advanced across the 16-bit wrap
		{0, 0, 0},                                              // zero
		{0xFFFF, 0x0000, 0x10000},                              // exact wrap boundary
		{0x2FFFF, 0xFFFF, 0x2FFFF},                             // max LSB unchanged
		{1<<56 - 2, 0x0001, (1<<56 - 2) - 0xFFFE + 0xFFFF + 2}, // near top
	}
	for _, c := range cases {
		if got := restoreLSB(c.stale, c.lsb); got != c.want {
			t.Errorf("restoreLSB(%#x, %#x) = %#x, want %#x", c.stale, c.lsb, got, c.want)
		}
	}
}

func TestRestoreLSBProperty(t *testing.T) {
	// For any stale value and any advance < 2^16, restoring from the
	// advanced value's LSBs recovers it exactly.
	f := func(staleRaw uint64, adv uint16) bool {
		stale := staleRaw & (1<<48 - 1)
		truth := stale + uint64(adv)
		got := restoreLSB(stale, uint16(truth&0xFFFF))
		return got == truth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverBlockMinorsIndependently(t *testing.T) {
	var truth ctrenc.CounterBlock
	truth.Major = 7
	stale := truth
	// Advance a few minors by varying amounts within the limit.
	truth.Minors[0] = 3
	truth.Minors[13] = 8
	truth.Minors[63] = 1
	stale.Minors[13] = 5 // stale by 3
	verify := func(slot int, counter uint64) bool { return counter == truth.Counter(slot) }
	rec, failed, err := recoverCounterBlock(stale, uint16(truth.Major&0xFFFF), osirisLimit, verify)
	if err != nil || len(failed) != 0 {
		t.Fatalf("failed slots %v err %v", failed, err)
	}
	if rec != truth {
		t.Fatalf("recovered %+v want %+v", rec, truth)
	}
}

func TestRecoverBlockAfterMajorBump(t *testing.T) {
	// The cached block did a major bump (page re-encryption) after the
	// last write-back: stale minors are garbage; recovery must restart
	// minors from zero under the new major.
	var truth ctrenc.CounterBlock
	truth.Major = 0x10001
	truth.Minors[2] = 4
	stale := ctrenc.CounterBlock{Major: 0x10000}
	stale.Minors[2] = 60
	stale.Minors[9] = 33
	verify := func(slot int, counter uint64) bool { return counter == truth.Counter(slot) }
	rec, failed, err := recoverCounterBlock(stale, uint16(truth.Major&0xFFFF), osirisLimit, verify)
	if err != nil || len(failed) != 0 {
		t.Fatalf("failed %v err %v", failed, err)
	}
	if rec != truth {
		t.Fatalf("recovered major %#x minors[2]=%d", rec.Major, rec.Minors[2])
	}
}

func TestRecoverBlockReportsFailedSlots(t *testing.T) {
	var truth ctrenc.CounterBlock
	stale := truth
	truth.Minors[5] = osirisLimit + 3 // beyond the trial bound
	verify := func(slot int, counter uint64) bool { return counter == truth.Counter(slot) }
	_, failed, err := recoverCounterBlock(stale, 0, osirisLimit, verify)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 5 {
		t.Fatalf("failed = %v, want [5]", failed)
	}
}

func TestRecoverBlockRejectsNegativeLimit(t *testing.T) {
	if _, _, err := recoverCounterBlock(ctrenc.CounterBlock{}, 0, -1, func(int, uint64) bool { return true }); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func TestRestoreLSBWrapEdges(t *testing.T) {
	// Edge cases around the 16-bit wrap that the crash-recovery path
	// depends on: a stale value exactly at a wrap boundary, LSBs equal to
	// the stale low bits (no advance), and advances that straddle the
	// boundary from both sides.
	cases := []struct {
		name  string
		stale uint64
		lsb   uint16
		want  uint64
	}{
		{"stale at wrap, no advance", 0x10000, 0x0000, 0x10000},
		{"stale at wrap, small advance", 0x10000, 0x0007, 0x10007},
		{"stale at wrap, max lsb", 0x10000, 0xFFFF, 0x1FFFF},
		{"stale one below wrap, lsb equal", 0xFFFF, 0xFFFF, 0xFFFF},
		{"stale one below wrap, advance wraps", 0xFFFF, 0x0001, 0x10001},
		{"lsb equals stale low bits mid-range", 0x3ABCD, 0xABCD, 0x3ABCD},
		{"advance of exactly 2^16-1", 0x20001, 0x0000, 0x30000},
		{"zero stale, lsb only", 0, 0x1234, 0x1234},
	}
	for _, c := range cases {
		if got := restoreLSB(c.stale, c.lsb); got != c.want {
			t.Errorf("%s: restoreLSB(%#x, %#x) = %#x, want %#x", c.name, c.stale, c.lsb, got, c.want)
		}
	}
}

func TestRecoverValueEdgeCases(t *testing.T) {
	never := func(uint64) bool { return false }
	cases := []struct {
		name   string
		stale  uint64
		limit  int
		verify func(uint64) bool
		want   uint64
		wantOK bool
	}{
		{"limit 0 accepts exact stale", 42, 0, func(v uint64) bool { return v == 42 }, 42, true},
		{"limit 0 rejects any advance", 42, 0, func(v uint64) bool { return v == 43 }, 0, false},
		{"verify never passes", 7, 8, never, 0, false},
		{"verify never passes, limit 0", 7, 0, never, 0, false},
		{"truth at the limit boundary", 10, 8, func(v uint64) bool { return v == 18 }, 18, true},
		{"truth one past the limit", 10, 8, func(v uint64) bool { return v == 19 }, 0, false},
	}
	for _, c := range cases {
		got, ok := recoverValue(c.stale, c.limit, c.verify)
		if ok != c.wantOK || got != c.want {
			t.Errorf("%s: recoverValue(%d, %d) = (%d, %v), want (%d, %v)",
				c.name, c.stale, c.limit, got, ok, c.want, c.wantOK)
		}
	}
}
