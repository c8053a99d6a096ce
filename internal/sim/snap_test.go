package sim

import (
	"bytes"
	"testing"
)

func TestSnapRoundTrip(t *testing.T) {
	w := &SnapW{}
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1 << 62)
	w.I64(-77)
	w.Time(12345)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte("payload"))
	w.String("name")
	w.Raw([]byte{1, 2, 3})

	r := NewSnapR(w.Data())
	if v := r.U8(); v != 0xab {
		t.Fatalf("U8 = %x", v)
	}
	if v := r.U16(); v != 0xbeef {
		t.Fatalf("U16 = %x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %x", v)
	}
	if v := r.U64(); v != 1<<62 {
		t.Fatalf("U64 = %x", v)
	}
	if v := r.I64(); v != -77 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.Time(); v != 12345 {
		t.Fatalf("Time = %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte("payload")) {
		t.Fatalf("Bytes = %q", v)
	}
	if v := r.String(); v != "name" {
		t.Fatalf("String = %q", v)
	}
	if v := r.Raw(3); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapRTruncationAndBounds(t *testing.T) {
	r := NewSnapR([]byte{1, 2})
	_ = r.U64()
	if r.Err() == nil {
		t.Fatal("want truncation error")
	}
	// Sticky: later reads stay zero without panicking.
	if r.U32() != 0 || r.Bytes() != nil {
		t.Fatal("poisoned reader returned data")
	}

	// A hostile count must not drive a huge allocation.
	w := &SnapW{}
	w.U32(1 << 30)
	r = NewSnapR(w.Data())
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err = %v; want bound error", n, r.Err())
	}

	// Bool bytes other than 0/1 are decode errors.
	r = NewSnapR([]byte{7})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("want bool range error")
	}

	// Done flags trailing garbage.
	r = NewSnapR([]byte{0, 0})
	r.U8()
	if err := r.Done(); err == nil {
		t.Fatal("want trailing-bytes error")
	}
}

func TestSealOpenEnvelope(t *testing.T) {
	payload := []byte("checkpoint body")
	env := Seal(SnapKindEngine, 3, payload)
	got, err := Open(SnapKindEngine, 3, env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}

	if _, err := Open(SnapKindController, 3, env); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := Open(SnapKindEngine, 4, env); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := Open(SnapKindEngine, 3, env[:len(env)-1]); err == nil {
		t.Fatal("truncated envelope accepted")
	}
	flipped := append([]byte(nil), env...)
	flipped[13] ^= 0x40
	if _, err := Open(SnapKindEngine, 3, flipped); err == nil {
		t.Fatal("corrupted payload accepted")
	}
	if _, err := Open(SnapKindEngine, 3, nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestBanksCheckpointRestore(t *testing.T) {
	b := NewBanks(4)
	b.Schedule(1, 100, 50)
	b.Schedule(3, 0, 10)
	w := &SnapW{}
	b.Checkpoint(w)

	b2 := NewBanks(4)
	if err := b2.Restore(NewSnapR(w.Data())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if b2.NextFree(i) != b.NextFree(i) {
			t.Fatalf("bank %d free at %v, want %v", i, b2.NextFree(i), b.NextFree(i))
		}
	}
	if err := NewBanks(5).Restore(NewSnapR(w.Data())); err == nil {
		t.Fatal("bank-count mismatch accepted")
	}
}
