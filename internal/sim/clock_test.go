package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	d := 150 * time.Nanosecond
	st := FromDuration(d)
	if st.Picoseconds() != 150_000 {
		t.Fatalf("150ns = %d ps", st.Picoseconds())
	}
	if st.Duration() != d {
		t.Fatalf("round trip %v", st.Duration())
	}
	if st.String() != "150ns" {
		t.Fatalf("String() = %q", st.String())
	}
}

func TestBanksSerializeSameBank(t *testing.T) {
	b := NewBanks(4)
	d1 := b.Schedule(0, 0, 100)
	d2 := b.Schedule(0, 0, 100)
	if d1 != 100 || d2 != 200 {
		t.Fatalf("same-bank requests not serialized: %v %v", d1, d2)
	}
	// A different bank is independent.
	if d := b.Schedule(1, 0, 100); d != 100 {
		t.Fatalf("cross-bank request delayed: %v", d)
	}
}

func TestBanksRespectEarliest(t *testing.T) {
	b := NewBanks(2)
	if d := b.Schedule(0, 500, 100); d != 600 {
		t.Fatalf("start time ignored: %v", d)
	}
	if b.NextFree(0) != 600 {
		t.Fatal("NextFree wrong")
	}
	b.Reset()
	if b.NextFree(0) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestBankForStableAndInRange(t *testing.T) {
	b := NewBanks(16)
	f := func(line uint64) bool {
		k := b.BankFor(line)
		return k >= 0 && k < 16 && k == b.BankFor(line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BankFor masks when the bank count is a power of two and divides
// otherwise; both must interleave exactly as line % n.
func TestBankForMatchesModulo(t *testing.T) {
	for n := 1; n <= 17; n++ {
		b := NewBanks(n)
		f := func(line uint64) bool { return b.BankFor(line) == int(line%uint64(n)) }
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%d banks: %v", n, err)
		}
	}
}

func TestBanksZeroClampsToOne(t *testing.T) {
	b := NewBanks(0)
	if b.N() != 1 {
		t.Fatalf("banks = %d", b.N())
	}
}

// Property: completion times on one bank are non-decreasing regardless of
// request order.
func TestBankCompletionMonotone(t *testing.T) {
	f := func(starts []uint16) bool {
		b := NewBanks(1)
		var prev Time
		for _, s := range starts {
			d := b.Schedule(0, Time(s), 10)
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
