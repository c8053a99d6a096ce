package core

import (
	"testing"

	"soteria/internal/itree"
	"soteria/internal/nvm"
)

func TestTable2MatchesPaper(t *testing.T) {
	src, sac := Table2()
	wantSRC := []int{2, 2, 2, 2, 2, 2, 2, 2, 2}
	wantSAC := []int{2, 2, 3, 3, 4, 4, 4, 4, 5}
	for i := range wantSRC {
		if src[i] != wantSRC[i] {
			t.Fatalf("SRC level %d depth %d, want %d", i+1, src[i], wantSRC[i])
		}
		if sac[i] != wantSAC[i] {
			t.Fatalf("SAC level %d depth %d, want %d", i+1, sac[i], wantSAC[i])
		}
	}
}

func TestPolicyDepthBounds(t *testing.T) {
	for _, p := range []ClonePolicy{Baseline(), SRC(), SAC()} {
		for top := 1; top <= 12; top++ {
			for lvl := 1; lvl <= top; lvl++ {
				d := p.Depth(lvl, top)
				if d < 1 || d > itree.MaxCloneDepth {
					t.Fatalf("%s: depth %d at level %d/%d outside [1,%d]", p.Name, d, lvl, top, itree.MaxCloneDepth)
				}
			}
		}
	}
	if Baseline().Depth(3, 9) != 1 {
		t.Fatal("baseline must not clone")
	}
}

func TestSACMonotoneUpward(t *testing.T) {
	// SAC invests more (never less) redundancy as coverage grows.
	for top := 2; top <= 12; top++ {
		p := SAC()
		prev := 0
		for lvl := 1; lvl <= top; lvl++ {
			d := p.Depth(lvl, top)
			if d < prev {
				t.Fatalf("SAC depth decreases at level %d/%d", lvl, top)
			}
			prev = d
		}
	}
}

func TestCustomPolicy(t *testing.T) {
	p, err := Custom("x", []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Depth(1, 5) != 1 || p.Depth(2, 5) != 3 || p.Depth(5, 5) != 3 {
		t.Fatal("custom depth table misapplied")
	}
	if _, err := Custom("bad", []int{7}); err == nil {
		t.Fatal("depth above MaxCloneDepth accepted")
	}
	if _, err := Custom("empty", nil); err == nil {
		t.Fatal("empty table accepted")
	}
}

// devMem adapts nvm.Device to the Mem interface.
type devMem struct{ dev *nvm.Device }

func (m devMem) ReadLine(addr uint64) (nvm.Line, bool) {
	r := m.dev.Read(addr)
	return r.Data, r.Uncorrectable
}
func (m devMem) WriteLine(addr uint64, line *nvm.Line) { m.dev.Write(addr, line) }

func handlerFixture(t *testing.T, policy ClonePolicy) (*FaultHandler, *itree.Layout, *nvm.Device) {
	t.Helper()
	lay, err := policy.Layout(itree.Params{DataBytes: 1 << 20, CounterArity: 64, TreeArity: 8})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := nvm.NewDevice(lay.Total+nvm.LineSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewFaultHandler(devMem{dev}, lay), lay, dev
}

// The layout a policy builds carries exactly the policy's depth at every
// stored level, with one clone region per extra copy, for trees of one to
// ten levels.
func TestPolicyLayoutMatchesDepths(t *testing.T) {
	sac9, err := Custom("nine", []int{2, 2, 3, 3, 4, 4, 4, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []ClonePolicy{Baseline(), SRC(), SAC(), sac9} {
		for _, size := range []uint64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 1 << 30, 1 << 40} {
			p := itree.Params{DataBytes: size, CounterArity: 64, TreeArity: 8, ShadowEntries: 64}
			lay, err := policy.Layout(p)
			if err != nil {
				t.Fatal(err)
			}
			top := lay.TopLevel()
			if n, err := itree.StoredLevels(p); err != nil || n != top {
				t.Fatalf("%s/%d: StoredLevels %d (%v), layout has %d", policy.Name, size, n, err, top)
			}
			for i, want := range policy.Depths(top) {
				if got := lay.CloneDepths[i]; got != want || len(lay.Levels[i].CloneBases) != want-1 {
					t.Fatalf("%s/%d: level %d has depth %d and %d clone regions, policy wants %d",
						policy.Name, size, i+1, got, len(lay.Levels[i].CloneBases), want)
				}
			}
		}
	}
	if _, err := SRC().Layout(itree.Params{DataBytes: 100, CounterArity: 64, TreeArity: 8}); err == nil {
		t.Fatal("unaligned data size accepted")
	}
}

func writeNode(lay *itree.Layout, dev *nvm.Device, level int, index uint64, line *nvm.Line) {
	for _, a := range lay.CopyAddrs(level, index) {
		dev.Write(a, line)
	}
}

func TestReadVerifiedClean(t *testing.T) {
	h, lay, dev := handlerFixture(t, SRC())
	var line nvm.Line
	line[0] = 0x11
	writeNode(lay, dev, 2, 3, &line)
	var got nvm.Line
	out, clones := h.ReadVerified(2, 3, &got, func(l *nvm.Line) bool { return l[0] == 0x11 })
	if out != OutcomeClean || got != line || clones != 0 {
		t.Fatalf("outcome %v after %d clone reads", out, clones)
	}
}

func TestRepairFromCloneAfterUncorrectable(t *testing.T) {
	h, lay, dev := handlerFixture(t, SRC())
	var line nvm.Line
	line[7] = 0x42
	writeNode(lay, dev, 1, 5, &line)
	dev.CorruptLine(lay.NodeAddr(1, 5)) // home copy dies
	var got nvm.Line
	out, clones := h.ReadVerified(1, 5, &got, func(l *nvm.Line) bool { return l[7] == 0x42 })
	if out != OutcomeRepaired || got != line || clones != 1 {
		t.Fatalf("outcome %v after %d clone reads", out, clones)
	}
	// Purify must have fixed the home copy.
	if r := dev.Read(lay.NodeAddr(1, 5)); r.Uncorrectable || r.Data != line {
		t.Fatal("home copy not purified")
	}
	if h.Stats().Repairs != 1 {
		t.Fatal("repair not counted")
	}
	// Next read is clean.
	if out, _ := h.ReadVerified(1, 5, new(nvm.Line), func(l *nvm.Line) bool { return l[7] == 0x42 }); out != OutcomeClean {
		t.Fatalf("post-repair outcome %v", out)
	}
}

func TestAllCopiesDeadIsUnverifiable(t *testing.T) {
	h, lay, dev := handlerFixture(t, SRC())
	var line nvm.Line
	writeNode(lay, dev, 2, 0, &line)
	for _, a := range lay.CopyAddrs(2, 0) {
		dev.CorruptLine(a)
	}
	out, clones := h.ReadVerified(2, 0, new(nvm.Line), func(l *nvm.Line) bool { return true })
	if out != OutcomeUnverifiable || clones != lay.CloneDepths[1]-1 {
		t.Fatalf("outcome %v after %d clone reads", out, clones)
	}
	st := h.Stats()
	start, end := lay.CoverageOf(2, 0)
	if st.UnverifiableBytes != end-start {
		t.Fatalf("unverifiable bytes %d, want %d", st.UnverifiableBytes, end-start)
	}
	if st.UDR(lay.DataBytes) <= 0 {
		t.Fatal("UDR not positive")
	}
	if st.UnverifiableNodes != 1 {
		t.Fatalf("unverifiable nodes %d, want 1", st.UnverifiableNodes)
	}
}

func TestBaselineHasNoClonesToFallBackOn(t *testing.T) {
	h, lay, dev := handlerFixture(t, Baseline())
	var line nvm.Line
	writeNode(lay, dev, 2, 1, &line)
	dev.CorruptLine(lay.NodeAddr(2, 1))
	out, clones := h.ReadVerified(2, 1, new(nvm.Line), func(l *nvm.Line) bool { return true })
	if out != OutcomeUnverifiable || clones != 0 {
		t.Fatalf("baseline outcome %v, want unverifiable", out)
	}
}

func TestReplayOfAllCopiesDetectedAsTamper(t *testing.T) {
	h, lay, dev := handlerFixture(t, SRC())
	var v1, v2 nvm.Line
	v1[0], v2[0] = 1, 2
	writeNode(lay, dev, 2, 2, &v1)
	// Legitimate update to v2...
	writeNode(lay, dev, 2, 2, &v2)
	// ...then the attacker replays v1 into every copy. ECC is clean, but
	// verification (which in the real controller checks the MAC under
	// the *current* parent counter) rejects the stale content.
	writeNode(lay, dev, 2, 2, &v1)
	out, _ := h.ReadVerified(2, 2, new(nvm.Line), func(l *nvm.Line) bool { return l[0] == 2 })
	if out != OutcomeTamper {
		t.Fatalf("outcome %v, want tamper", out)
	}
	if h.Stats().TamperDetections != 1 {
		t.Fatal("tamper not counted")
	}
}

func TestReplayOfSingleCloneIsRepaired(t *testing.T) {
	// §3.2.2: "since there are multiple duplicates of the intermediate
	// nodes, replaying a single MT node will end up being corrected".
	h, lay, dev := handlerFixture(t, SRC())
	var v1, v2 nvm.Line
	v1[0], v2[0] = 1, 2
	writeNode(lay, dev, 2, 2, &v1)
	writeNode(lay, dev, 2, 2, &v2)
	// Replay only the home copy.
	dev.Write(lay.NodeAddr(2, 2), &v1)
	var got nvm.Line
	out, _ := h.ReadVerified(2, 2, &got, func(l *nvm.Line) bool { return l[0] == 2 })
	if out != OutcomeRepaired || got != v2 {
		t.Fatalf("outcome %v", out)
	}
	if r := dev.Read(lay.NodeAddr(2, 2)); r.Data != v2 {
		t.Fatal("replayed home copy not purified")
	}
}

// A node's copy list is the atomic write group a write-back pushes through
// the WPQ: one address per copy the policy asks for, never more than the
// WPQ can commit at once.
func TestCopyAddrsMatchPolicyAndWPQBound(t *testing.T) {
	_, lay, _ := handlerFixture(t, SAC())
	for lvl := 1; lvl <= lay.TopLevel(); lvl++ {
		addrs := lay.CopyAddrs(lvl, 0)
		if want := SAC().Depth(lvl, lay.TopLevel()); len(addrs) != want {
			t.Fatalf("level %d: %d copies, want %d", lvl, len(addrs), want)
		}
		if len(addrs) > itree.MaxCloneDepth {
			t.Fatalf("level %d exceeds WPQ-safe depth", lvl)
		}
	}
}

// stuckMem is an allocation-free Mem over a fixed set of lines, in which
// the line at bad always reads as uncorrectable.
type stuckMem struct {
	lines map[uint64]nvm.Line
	bad   uint64
}

func (m *stuckMem) ReadLine(addr uint64) (nvm.Line, bool) { return m.lines[addr], addr == m.bad }
func (m *stuckMem) WriteLine(addr uint64, line *nvm.Line) { m.lines[addr] = *line }

// A read that repairs a dead home copy from a clone, one that finds every
// copy replayed, and one that finds no copy verifiable allocate nothing: a
// fault storm must not turn into garbage-collector work on the path that
// degrades most.
func TestReadVerifiedFaultPathZeroAllocs(t *testing.T) {
	lay, err := SAC().Layout(itree.Params{DataBytes: 1 << 20, CounterArity: 64, TreeArity: 8})
	if err != nil {
		t.Fatal(err)
	}
	top := lay.TopLevel()
	mem := &stuckMem{lines: map[uint64]nvm.Line{}, bad: lay.NodeAddr(top, 0)}
	var good, stale nvm.Line
	good[7], stale[7] = 0x42, 0x41
	for _, a := range lay.CopyAddrs(top, 0) {
		mem.lines[a] = good
	}
	for _, a := range lay.CopyAddrs(1, 3) {
		mem.lines[a] = stale
	}
	h := NewFaultHandler(mem, lay)
	dst := new(nvm.Line)
	verify := func(l *nvm.Line) bool { return l[7] == 0x42 }

	repair := testing.AllocsPerRun(100, func() {
		if out, _ := h.ReadVerified(top, 0, dst, verify); out != OutcomeRepaired {
			t.Fatalf("outcome %v, want repaired", out)
		}
	})
	tamper := testing.AllocsPerRun(100, func() {
		if out, _ := h.ReadVerified(1, 3, dst, verify); out != OutcomeTamper {
			t.Fatalf("outcome %v, want tamper", out)
		}
	})
	// The dead home copy with every clone failing verification is lost.
	reject := func(*nvm.Line) bool { return false }
	lost := testing.AllocsPerRun(100, func() {
		if out, _ := h.ReadVerified(top, 0, dst, reject); out != OutcomeUnverifiable {
			t.Fatalf("outcome %v, want unverifiable", out)
		}
	})
	if repair != 0 || tamper != 0 || lost != 0 {
		t.Fatalf("allocs per read: repair %v, tamper %v, unverifiable %v; want 0", repair, tamper, lost)
	}

	// The same three reads over a real device, whose decode of a home copy
	// killed through CorruptLine reports every word bad, allocate nothing.
	// A repair rewrites the home copy, so each repair run kills it again;
	// the unverifiable runs write nothing, so one kill (CorruptLine flips
	// bits, and a second one would undo it) lasts them.
	dev, err := nvm.NewDevice(lay.Total, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range lay.CopyAddrs(top, 0) {
		dev.Write(a, &good)
	}
	for _, a := range lay.CopyAddrs(1, 3) {
		dev.Write(a, &stale)
	}
	h = NewFaultHandler(devMem{dev}, lay)
	home := lay.NodeAddr(top, 0)
	repair = testing.AllocsPerRun(100, func() {
		dev.CorruptLine(home)
		if out, _ := h.ReadVerified(top, 0, dst, verify); out != OutcomeRepaired {
			t.Fatalf("device: outcome %v, want repaired", out)
		}
	})
	tamper = testing.AllocsPerRun(100, func() {
		if out, _ := h.ReadVerified(1, 3, dst, verify); out != OutcomeTamper {
			t.Fatalf("device: outcome %v, want tamper", out)
		}
	})
	dev.CorruptLine(home)
	lost = testing.AllocsPerRun(100, func() {
		if out, _ := h.ReadVerified(top, 0, dst, reject); out != OutcomeUnverifiable {
			t.Fatalf("device: outcome %v, want unverifiable", out)
		}
	})
	if repair != 0 || tamper != 0 || lost != 0 {
		t.Fatalf("device: allocs per read: repair %v, tamper %v, unverifiable %v; want 0", repair, tamper, lost)
	}
	// AllocsPerRun makes one warm-up call before its 100 runs.
	if hits := dev.Stats().UncorrectableHits; hits < 2*101 {
		t.Fatalf("device: %d uncorrectable reads, want one per repair and unverifiable run", hits)
	}
}

// killNode makes node (level, index) unverifiable by corrupting every copy.
func killNode(lay *itree.Layout, dev *nvm.Device, level int, index uint64) {
	for _, a := range lay.CopyAddrs(level, index) {
		dev.CorruptLine(a)
	}
}

// TestResetStatsReturnsCappedEvents is the regression test for the
// Stats / ResetStats window: a harness that snapshotted Stats() and then
// called ResetStats() separately could lose incidents recorded between
// the two calls. ResetStats returns the pre-reset statistics atomically
// and leaves the books counting from zero.
func TestResetStatsReturnsCappedEvents(t *testing.T) {
	h, lay, dev := handlerFixture(t, SRC())

	var line nvm.Line
	for i := uint64(0); i < 3; i++ {
		writeNode(lay, dev, 2, i, &line)
		killNode(lay, dev, 2, i)
		if out, _ := h.ReadVerified(2, i, new(nvm.Line), func(*nvm.Line) bool { return true }); out != OutcomeUnverifiable {
			t.Fatalf("incident %d: outcome %v, want unverifiable", i, out)
		}
	}

	prev := h.ResetStats()
	if prev.UnverifiableNodes != 3 {
		t.Fatalf("pre-reset UnverifiableNodes = %d, want 3", prev.UnverifiableNodes)
	}

	// The reset must leave a clean slate.
	if st := h.Stats(); st.UnverifiableNodes != 0 {
		t.Fatalf("post-reset stats not clean: %+v", st)
	}

	// A new incident counts from zero again.
	writeNode(lay, dev, 2, 7, &line)
	killNode(lay, dev, 2, 7)
	if out, _ := h.ReadVerified(2, 7, new(nvm.Line), func(*nvm.Line) bool { return true }); out != OutcomeUnverifiable {
		t.Fatalf("post-reset incident: outcome %v", out)
	}
	if st := h.Stats(); st.UnverifiableNodes != 1 {
		t.Fatalf("post-reset count wrong: %+v", st)
	}
}
