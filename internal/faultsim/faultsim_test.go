package faultsim

import (
	"math"
	"math/rand"
	"testing"

	"soteria/internal/config"
	"soteria/internal/core"
)

func dimm() config.DIMMConfig { return config.Table4().DIMM }

func TestModesScale(t *testing.T) {
	base := HopperModes()
	for _, fit := range []float64{1, 10, 80} {
		scaled := ScaledModes(base, fit)
		if got := TotalFIT(scaled); math.Abs(got-fit) > 1e-9 {
			t.Fatalf("scaled total = %v, want %v", got, fit)
		}
	}
	// Relative distribution preserved.
	s := ScaledModes(base, 10)
	r0 := base[0].TransientFIT / base[3].PermanentFIT
	r1 := s[0].TransientFIT / s[3].PermanentFIT
	if math.Abs(r0-r1) > 1e-9 {
		t.Fatal("scaling distorted the distribution")
	}
}

func TestDIMMGeometryCapacity(t *testing.T) {
	d := dimm()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 ranks x 16 banks x 16384 rows x 4096 cols x 8B = 16 GiB.
	if got := d.CapacityBytes(); got != 16<<30 {
		t.Fatalf("capacity = %d, want 16 GiB", got)
	}
}

func TestSameChipFaultsAreCorrectable(t *testing.T) {
	d := dimm()
	faults := []Fault{
		{Chip: 3, Gran: GranBank, Bank: 2, Start: 0, End: 100},
		{Chip: 3, Gran: GranRow, Bank: 2, Row: 5, Start: 0, End: 100},
	}
	if rects := Uncorrectable(d, faults); len(rects) != 0 {
		t.Fatalf("same-chip faults flagged uncorrectable: %v", rects)
	}
}

func TestDifferentRankFaultsIndependent(t *testing.T) {
	d := dimm()
	faults := []Fault{
		{Chip: 0, Gran: GranBank, Bank: 2, Start: 0, End: 100},
		{Chip: 9, Gran: GranBank, Bank: 2, Start: 0, End: 100}, // rank 1
	}
	if rects := Uncorrectable(d, faults); len(rects) != 0 {
		t.Fatal("cross-rank faults flagged uncorrectable")
	}
}

func TestOverlappingBankFaultsUncorrectable(t *testing.T) {
	d := dimm()
	faults := []Fault{
		{Chip: 0, Gran: GranBank, Bank: 7, Start: 0, End: 100},
		{Chip: 4, Gran: GranBank, Bank: 7, Start: 50, End: 150},
	}
	rects := Uncorrectable(d, faults)
	if len(rects) != 1 {
		t.Fatalf("rects = %v", rects)
	}
	r := rects[0]
	if r.B0 != 7 || r.B1 != 7 || r.R0 != 0 || r.R1 != d.Rows-1 {
		t.Fatalf("intersection %v", r)
	}
	if r.Beats() != uint64(d.Rows)*uint64(d.Cols) {
		t.Fatal("wrong beat count")
	}
}

func TestDisjointBanksNotUncorrectable(t *testing.T) {
	d := dimm()
	faults := []Fault{
		{Chip: 0, Gran: GranBank, Bank: 7, Start: 0, End: 100},
		{Chip: 4, Gran: GranBank, Bank: 8, Start: 0, End: 100},
	}
	if rects := Uncorrectable(d, faults); len(rects) != 0 {
		t.Fatal("disjoint banks flagged")
	}
}

func TestTimeDisjointFaultsNotUncorrectable(t *testing.T) {
	d := dimm()
	// A scrubbed transient that ended before the second fault arrived.
	faults := []Fault{
		{Chip: 0, Gran: GranBank, Bank: 7, Transient: true, Start: 0, End: 24},
		{Chip: 4, Gran: GranBank, Bank: 7, Start: 100, End: 200},
	}
	if rects := Uncorrectable(d, faults); len(rects) != 0 {
		t.Fatal("time-disjoint faults flagged")
	}
}

func TestMultiRankEmitsMirroredFault(t *testing.T) {
	d := dimm()
	rng := rand.New(rand.NewSource(1))
	fs := sampleFault(rng, d, GranMultiRank, false, 0, 100)
	if len(fs) != 2 {
		t.Fatalf("multi-rank produced %d faults", len(fs))
	}
	if fs[0].Chip/d.ChipsPerRank == fs[1].Chip/d.ChipsPerRank {
		t.Fatal("mirror fault in same rank")
	}
}

func TestLinearIntervalsRowBankMapping(t *testing.T) {
	d := dimm()
	var s intervalSet
	// One beat: rank 0, bank 1, row 0, col 3.
	linearIntervals(d, Rect{Rank: 0, B0: 1, B1: 1, R0: 0, R1: 0, C0: 3, C1: 3}, &s)
	s.normalize()
	rowBytes := uint64(d.Cols * 8)
	want := 1*rowBytes + 3*8
	if len(s.iv) != 1 || s.iv[0].Lo != want || s.iv[0].Hi != want+8 {
		t.Fatalf("mapping = %+v, want [%d,%d)", s.iv, want, want+8)
	}
	// Whole-rank rect is one contiguous interval of half the DIMM.
	var s2 intervalSet
	linearIntervals(d, Rect{Rank: 1, B0: 0, B1: d.Banks - 1, R0: 0, R1: d.Rows - 1, C0: 0, C1: d.Cols - 1}, &s2)
	s2.normalize()
	if len(s2.iv) != 1 || s2.size() != d.CapacityBytes()/2 {
		t.Fatalf("whole-rank mapping wrong: %d intervals, %d bytes", len(s2.iv), s2.size())
	}
	if s2.iv[0].Lo != d.CapacityBytes()/2 {
		t.Fatal("rank 1 does not start at mid-capacity")
	}
}

func TestIntervalSetOps(t *testing.T) {
	var a intervalSet
	a.add(10, 20)
	a.add(15, 30)
	a.add(40, 50)
	a.normalize()
	if a.size() != 30 {
		t.Fatalf("size = %d", a.size())
	}
	if a.overlap(0, 12) != 2 || a.overlap(45, 100) != 5 {
		t.Fatal("overlap wrong")
	}
	var b intervalSet
	b.add(12, 42)
	b.normalize()
	// a \ b = [10,12) + [42,50) = 10
	if got := a.minus(&b); got != 10 {
		t.Fatalf("minus = %d, want 10", got)
	}
}

func TestSchemesFitDIMM(t *testing.T) {
	d := dimm()
	for _, p := range []core.ClonePolicy{core.Baseline(), core.SRC(), core.SAC()} {
		s, err := BuildScheme(d, p, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if s.Layout.Total > d.CapacityBytes() {
			t.Fatalf("%s layout (%d) exceeds DIMM (%d)", p.Name, s.Layout.Total, d.CapacityBytes())
		}
		// Data capacity must be the lion's share: the MAC region costs
		// 12.5%, metadata ~1.8%, clones a little more.
		if float64(s.Layout.DataBytes) < 0.85*float64(d.CapacityBytes()) {
			t.Fatalf("%s data capacity only %d", p.Name, s.Layout.DataBytes)
		}
	}
}

func TestLossBaselineVsCloned(t *testing.T) {
	d := dimm()
	base, _ := BuildScheme(d, core.Baseline(), 8192)
	src, _ := BuildScheme(d, core.SRC(), 8192)

	// Craft an uncorrectable word inside the baseline counter region.
	ctrBase := base.Layout.Levels[0].Base
	rect := rectForAddr(d, ctrBase)
	lErr, lUnv := base.Loss(d, []Rect{rect})
	if lErr != 0 {
		t.Fatalf("counter-region fault produced data error %d", lErr)
	}
	if lUnv != 64*64 {
		t.Fatalf("baseline unverifiable = %d, want 4096 (one counter block)", lUnv)
	}

	// The same *physical* fault against SRC: its counter region starts at
	// a similar offset; target SRC's own counter base. One dead home copy
	// with a live clone loses nothing.
	rect = rectForAddr(d, src.Layout.Levels[0].Base)
	_, lUnv = src.Loss(d, []Rect{rect})
	if lUnv != 0 {
		t.Fatalf("SRC lost %d bytes with a single dead home copy", lUnv)
	}

	// Kill the home AND the clone of SRC counter block 0: now it is lost.
	rects := []Rect{
		rectForAddr(d, src.Layout.NodeAddr(1, 0)),
		rectForAddr(d, src.Layout.CloneAddr(1, 0, 0)),
	}
	_, lUnv = src.Loss(d, rects)
	if lUnv != 64*64 {
		t.Fatalf("SRC with all copies dead lost %d, want 4096", lUnv)
	}
}

func TestLossDataRegion(t *testing.T) {
	d := dimm()
	ns := NonSecureScheme(d)
	rect := rectForAddr(d, 4096)
	lErr, lUnv := ns.Loss(d, []Rect{rect})
	if lErr != 64 || lUnv != 0 {
		t.Fatalf("non-secure loss = (%d,%d), want (64,0)", lErr, lUnv)
	}
}

func TestUnverifiableExcludesErroredData(t *testing.T) {
	d := dimm()
	base, _ := BuildScheme(d, core.Baseline(), 8192)
	// Kill counter block 0 AND one of the data blocks it covers.
	rects := []Rect{
		rectForAddr(d, base.Layout.NodeAddr(1, 0)),
		rectForAddr(d, 0), // data block 0
	}
	lErr, lUnv := base.Loss(d, rects)
	if lErr != 64 {
		t.Fatalf("lErr = %d", lErr)
	}
	if lUnv != 64*64-64 {
		t.Fatalf("lUnv = %d, want coverage minus the errored block", lUnv)
	}
}

// rectForAddr builds the 64-byte rectangle covering the line at a linear
// address (inverse of linearIntervals for a single line).
func rectForAddr(d config.DIMMConfig, addr uint64) Rect {
	beat := uint64(d.BytesPerBeat())
	rowBytes := uint64(d.Cols) * beat
	lineBeats := 64 / beat
	rowIdx := addr / rowBytes
	col := (addr % rowBytes) / beat
	bank := rowIdx % uint64(d.Banks)
	rr := rowIdx / uint64(d.Banks)
	row := rr % uint64(d.Rows)
	rank := rr / uint64(d.Rows)
	return Rect{
		Rank: int(rank),
		B0:   int(bank), B1: int(bank),
		R0: int(row), R1: int(row),
		C0: int(col), C1: int(col + lineBeats - 1),
	}
}

func TestRectForAddrRoundTrip(t *testing.T) {
	d := dimm()
	for _, addr := range []uint64{0, 64, 4096, 1 << 30, d.CapacityBytes() - 64} {
		var s intervalSet
		linearIntervals(d, rectForAddr(d, addr), &s)
		s.normalize()
		if len(s.iv) != 1 || s.iv[0].Lo != addr || s.iv[0].Hi != addr+64 {
			t.Fatalf("round trip of %#x gave %+v", addr, s.iv)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const lambda = 0.5
	n := 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-lambda) > 0.01 {
		t.Fatalf("poisson mean %v, want %v", mean, lambda)
	}
}

func TestSampleTrialDeterminism(t *testing.T) {
	cfg := config.Table4()
	modes := ScaledModes(HopperModes(), 80)
	a := SampleTrial(rand.New(rand.NewSource(5)), cfg, modes)
	b := SampleTrial(rand.New(rand.NewSource(5)), cfg, modes)
	if len(a) != len(b) {
		t.Fatal("non-deterministic sampling")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic fault")
		}
	}
}

func TestUncorrectableKStrongerECC(t *testing.T) {
	d := dimm()
	// Two overlapping bank faults: uncorrectable under Chipkill (k=1),
	// correctable under double-Chipkill (k=2).
	two := []Fault{
		{Chip: 0, Gran: GranBank, Bank: 7, Start: 0, End: 100},
		{Chip: 4, Gran: GranBank, Bank: 7, Start: 0, End: 100},
	}
	if len(UncorrectableK(d, two, 1)) == 0 {
		t.Fatal("k=1 missed a double-chip overlap")
	}
	if len(UncorrectableK(d, two, 2)) != 0 {
		t.Fatal("k=2 flagged a double-chip overlap")
	}
	// A third overlapping chip defeats k=2.
	three := append(two, Fault{Chip: 8, Gran: GranBank, Bank: 7, Start: 0, End: 100})
	rects := UncorrectableK(d, three, 2)
	if len(rects) != 1 {
		t.Fatalf("k=2 triple overlap rects = %v", rects)
	}
	if rects[0].B0 != 7 || rects[0].B1 != 7 {
		t.Fatalf("triple intersection %v", rects[0])
	}
	// Time-disjoint third fault: still correctable under k=2.
	three[2].Start, three[2].End = 200, 300
	if len(UncorrectableK(d, three, 2)) != 0 {
		t.Fatal("k=2 ignored temporal disjointness")
	}
	// Same chip twice never counts as two symbol errors.
	dup := append(two, Fault{Chip: 0, Gran: GranRow, Bank: 7, Row: 3, Start: 0, End: 100})
	if len(UncorrectableK(d, dup, 2)) != 0 {
		t.Fatal("same-chip faults double-counted")
	}
}

func TestUncorrectableKMatchesPairwise(t *testing.T) {
	d := dimm()
	rng := rand.New(rand.NewSource(11))
	modes := ScaledModes(HopperModes(), 5000)
	cfg := config.Table4()
	var buf []Fault
	for trial := 0; trial < 200; trial++ {
		faults := SampleTrialInto(rng, cfg, modes, buf)
		buf = faults
		a := Uncorrectable(d, faults)
		b := UncorrectableK(d, faults, 1)
		if len(a) != len(b) {
			t.Fatalf("trial %d: pairwise %d vs K %d rects", trial, len(a), len(b))
		}
	}
}

// Property: for random fault sets, per-scheme losses obey the structural
// order — non-secure never reports unverifiable data, clones never lose
// more than the baseline, and L_error is identical across secure schemes
// sharing the same data capacity.
func TestLossOrderingProperty(t *testing.T) {
	d := dimm()
	cfg := config.Table4()
	base, _ := BuildScheme(d, core.Baseline(), 8192)
	src, _ := BuildScheme(d, core.SRC(), 8192)
	sac, _ := BuildScheme(d, core.SAC(), 8192)
	rng := rand.New(rand.NewSource(21))
	modes := ScaledModes(HopperModes(), 20000) // absurd rate: many faults per trial
	for trial := 0; trial < 60; trial++ {
		faults := SampleTrial(rng, cfg, modes)
		rects := Uncorrectable(d, faults)
		_, bUnv := base.Loss(d, rects)
		_, sUnv := src.Loss(d, rects)
		_, aUnv := sac.Loss(d, rects)
		// SRC/SAC layouts differ from baseline's, so exact dominance
		// only binds between SRC and SAC (identical layouts except
		// upper-level clone count).
		if aUnv > sUnv {
			t.Fatalf("trial %d: SAC (%d) lost more than SRC (%d)", trial, aUnv, sUnv)
		}
		ns := NonSecureScheme(d)
		_, nUnv := ns.Loss(d, rects)
		if nUnv != 0 {
			t.Fatalf("trial %d: non-secure unverifiable %d", trial, nUnv)
		}
		// A BMT variant of the baseline can never lose more.
		bmt := *base
		bmt.RecomputableAbove = 1
		_, mUnv := bmt.Loss(d, rects)
		if mUnv > bUnv {
			t.Fatalf("trial %d: BMT (%d) lost more than ToC (%d)", trial, mUnv, bUnv)
		}
		// Triad-style selective persistence sits between the two: with
		// persisted levels 1..N, levels above N+1 are recomputable — more
		// levels at risk than a BMT (level > 1), fewer than the plain ToC.
		triad := *base
		triad.RecomputableAbove = 2 // persistLevels=1
		_, tUnv := triad.Loss(d, rects)
		if tUnv > bUnv {
			t.Fatalf("trial %d: triad (%d) lost more than ToC (%d)", trial, tUnv, bUnv)
		}
		if mUnv > tUnv {
			t.Fatalf("trial %d: BMT (%d) lost more than triad (%d)", trial, mUnv, tUnv)
		}
	}
}

func TestECCModelStrings(t *testing.T) {
	if ECCChipkill.String() != "chipkill" || ECCMultiBit.String() != "chipkill+multibit" ||
		ECCDoubleChipkill.String() != "double-chipkill" {
		t.Fatal("ECC model strings wrong")
	}
	if ECCChipkill.minFaultsFor() != 2 || ECCDoubleChipkill.minFaultsFor() != 3 {
		t.Fatal("minFaultsFor wrong")
	}
}

func TestMultiBitECCDropsOnlySmallOverlaps(t *testing.T) {
	d := dimm()
	bitPair := []Fault{
		{Chip: 0, Gran: GranBit, Bank: 3, Row: 9, Col: 40, Start: 0, End: 10},
		{Chip: 5, Gran: GranWord, Bank: 3, Row: 9, Col: 40, Start: 0, End: 10},
	}
	if len(ECCMultiBit.rectsFor(d, bitPair)) != 0 {
		t.Fatal("multi-bit ECC failed to absorb a bit/word overlap")
	}
	if len(ECCChipkill.rectsFor(d, bitPair)) != 1 {
		t.Fatal("chipkill should flag the bit/word overlap")
	}
	structured := []Fault{
		{Chip: 0, Gran: GranBit, Bank: 3, Row: 9, Col: 40, Start: 0, End: 10},
		{Chip: 5, Gran: GranRow, Bank: 3, Row: 9, Start: 0, End: 10},
	}
	if len(ECCMultiBit.rectsFor(d, structured)) != 1 {
		t.Fatal("multi-bit ECC must not absorb a structured overlap")
	}
}
