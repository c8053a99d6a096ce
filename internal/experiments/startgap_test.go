package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStartGapRejectsBadParams(t *testing.T) {
	if _, err := newStartGap(0, 10); err == nil {
		t.Fatal("zero lines accepted")
	}
	if _, err := newStartGap(10, 0); err == nil {
		t.Fatal("zero psi accepted")
	}
}

func TestStartGapInitialMappingIsIdentity(t *testing.T) {
	sg, _ := newStartGap(8, 100)
	for la := uint64(0); la < 8; la++ {
		if pa := sg.Translate(la); pa != la {
			t.Fatalf("Translate(%d) = %d before any movement", la, pa)
		}
	}
	if sg.PhysicalLines() != 9 {
		t.Fatal("spare line missing")
	}
}

// The fundamental invariant: the mapping is injective at all times, and a
// simulated store accessed through the mapping never loses data across any
// number of gap movements.
func TestStartGapMappingBijectiveAndDataPreserving(t *testing.T) {
	const n, psi = 37, 3 // odd size, frequent movement
	store := make([][64]byte, n+1)
	r, err := newWearRegion(n, psi, func(p uint64) [64]byte { return store[p] },
		func(p uint64, d *[64]byte) { store[p] = *d })
	if err != nil {
		t.Fatal(err)
	}
	expect := make(map[uint64][64]byte)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		la := uint64(rng.Intn(n))
		var v [64]byte
		rng.Read(v[:8])
		r.Write(la, &v)
		expect[la] = v
		// Injectivity check (cheap: n is small).
		seen := map[uint64]bool{}
		for x := uint64(0); x < n; x++ {
			pa := r.sg.Translate(x)
			if pa > n {
				t.Fatalf("physical %d out of range", pa)
			}
			if seen[pa] {
				t.Fatalf("mapping collision at physical %d after %d writes", pa, i+1)
			}
			seen[pa] = true
		}
		// Spot-check a few logical lines every iteration.
		for la, want := range expect {
			if got := r.Read(la); got != want {
				t.Fatalf("data lost at logical %d after %d writes (gap=%d start=%d)",
					la, i+1, r.sg.gap, r.sg.start)
			}
			break // one per iteration keeps the test fast
		}
	}
	// Full final audit.
	for la, want := range expect {
		if got := r.Read(la); got != want {
			t.Fatalf("final audit: logical %d corrupted", la)
		}
	}
}

func TestStartGapMovementCadence(t *testing.T) {
	sg, _ := newStartGap(10, 5)
	moves := 0
	for i := 0; i < 50; i++ {
		if _, need := sg.OnWrite(); need {
			moves++
		}
	}
	if moves != 10 {
		t.Fatalf("moves = %d, want 10 (every 5th write)", moves)
	}
	if sg.Moves() != 10 {
		t.Fatal("move counter wrong")
	}
}

func TestStartGapFullRotationReturnsToIdentity(t *testing.T) {
	const n = 8
	sg, _ := newStartGap(n, 1)
	// One full rotation = n * (n+1) movements (gap traverses n+1 slots
	// per start increment, n increments to wrap start).
	for sg.start != 0 || sg.gap != n || sg.Moves() == 0 {
		sg.OnWrite()
		if sg.Moves() > 10*n*(n+1) {
			t.Fatal("rotation never returned to the initial state")
		}
	}
	for la := uint64(0); la < n; la++ {
		if sg.Translate(la) != la {
			t.Fatalf("mapping not identity after full rotation")
		}
	}
}

// Start-Gap's purpose: under a write-hot line, wear spreads instead of
// concentrating.
func TestWearSpreadsUnderHotLine(t *testing.T) {
	const n, psi = 64, 4
	wearNo := make([]uint64, n+1)
	wearSG := make([]uint64, n+1)
	store := make([][64]byte, n+1)
	r, _ := newWearRegion(n, psi, func(p uint64) [64]byte { return store[p] },
		func(p uint64, d *[64]byte) { wearSG[p]++; store[p] = *d })
	var v [64]byte
	const writes = 50000
	for i := 0; i < writes; i++ {
		// 90% of writes hammer line 7.
		la := uint64(7)
		if i%10 == 0 {
			la = uint64(i/10) % n
		}
		wearNo[la]++ // what a non-leveled memory would see
		r.Write(la, &v)
	}
	noSpread := wearSpread(wearNo)
	sgSpread := wearSpread(wearSG)
	if sgSpread >= noSpread/4 {
		t.Fatalf("start-gap barely helped: spread %.1f vs %.1f unleveled", sgSpread, noSpread)
	}
}

func TestWearSpreadMetric(t *testing.T) {
	if wearSpread(nil) != 0 || wearSpread([]uint64{0, 0}) != 0 {
		t.Fatal("degenerate inputs")
	}
	if got := wearSpread([]uint64{10, 10, 10}); got != 1.0 {
		t.Fatalf("even wear spread = %v", got)
	}
	if got := wearSpread([]uint64{30, 0, 0}); got != 3.0 {
		t.Fatalf("concentrated spread = %v", got)
	}
}

func TestStartGapTranslatePanicsOutOfRange(t *testing.T) {
	sg, _ := newStartGap(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sg.Translate(4)
}

// Property: Translate is always within bounds and never equals the gap.
func TestStartGapTranslateAvoidsGap(t *testing.T) {
	f := func(writes uint16, la uint16) bool {
		sg, _ := newStartGap(16, 1)
		for i := 0; i < int(writes%512); i++ {
			sg.OnWrite()
		}
		pa := sg.Translate(uint64(la % 16))
		return pa <= 16 && pa != sg.gap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
