package memctrl

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"soteria/internal/config"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

func newCtrl(t testing.TB, mode Mode) *Controller {
	t.Helper()
	c, err := New(config.TestSystem(), mode, []byte("test-key"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func allModes() []Mode {
	return []Mode{ModeNonSecure, ModeBaseline, ModeSRC, ModeSAC}
}

func fill(seed int64, n int) []nvm.Line {
	rng := rand.New(rand.NewSource(seed))
	out := make([]nvm.Line, n)
	for i := range out {
		rng.Read(out[i][:])
	}
	return out
}

func TestReadWriteRoundTripAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCtrl(t, mode)
			lines := fill(1, 100)
			var now sim.Time
			var err error
			for i, l := range lines {
				addr := uint64(i) * 4096 // spread across counter blocks
				if now, err = c.WriteBlock(now, addr, &l); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			for i, l := range lines {
				addr := uint64(i) * 4096
				got, nn, err := c.ReadBlock(now, addr)
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if got != l {
					t.Fatalf("block %d mismatch", i)
				}
				now = nn
			}
			if now <= 0 {
				t.Fatal("no simulated time elapsed")
			}
		})
	}
}

func TestColdReadReturnsZeros(t *testing.T) {
	for _, mode := range allModes() {
		c := newCtrl(t, mode)
		got, _, err := c.ReadBlock(0, 12345*64)
		if err != nil {
			t.Fatalf("%v: cold read: %v", mode, err)
		}
		if got != (nvm.Line{}) {
			t.Fatalf("%v: cold read not zero", mode)
		}
	}
}

func TestDataIsEncryptedAtRest(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	var pt nvm.Line
	copy(pt[:], "extremely secret persistent data! it must never hit the array.")
	if _, err := c.WriteBlock(0, 0, &pt); err != nil {
		t.Fatal(err)
	}
	raw := c.Device().ReadRaw(0)
	if raw == pt {
		t.Fatal("plaintext stored in NVM")
	}
	var zero nvm.Line
	if raw == zero {
		t.Fatal("nothing stored in NVM")
	}
}

func TestOverwriteChangesCiphertext(t *testing.T) {
	// Counter-mode freshness: writing the same plaintext twice must
	// produce different ciphertexts (the counter advanced).
	c := newCtrl(t, ModeBaseline)
	var pt nvm.Line
	pt[0] = 0x55
	_, err := c.WriteBlock(0, 64, &pt)
	if err != nil {
		t.Fatal(err)
	}
	ct1 := c.Device().ReadRaw(64)
	if _, err = c.WriteBlock(0, 64, &pt); err != nil {
		t.Fatal(err)
	}
	ct2 := c.Device().ReadRaw(64)
	if ct1 == ct2 {
		t.Fatal("same pad reused for consecutive writes (counter not advancing)")
	}
}

func TestCiphertextTamperDetected(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	var pt nvm.Line
	pt[3] = 9
	now, err := c.WriteBlock(0, 128, &pt)
	if err != nil {
		t.Fatal(err)
	}
	// Under Chipkill a single flipped bit would be corrected; flip one
	// symbol in two chips so ECC passes the corruption through...
	// actually two chips is uncorrectable. Tamper = attacker rewrites
	// the line (with internally consistent ECC), so model it as a raw
	// overwrite through the device API.
	raw := c.Device().ReadRaw(128)
	raw[3] ^= 0x01
	l := raw
	c.Device().Write(128, &l)
	_, _, err = c.ReadBlock(now, 128)
	if !errors.Is(err, ErrMACMismatch) {
		t.Fatalf("tampered ciphertext read err = %v, want MAC mismatch", err)
	}
}

func TestDataReplayDetected(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	var v1, v2 nvm.Line
	v1[0], v2[0] = 1, 2
	now, err := c.WriteBlock(0, 256, &v1)
	if err != nil {
		t.Fatal(err)
	}
	// Capture old ciphertext AND old MAC line (the strongest replay).
	oldCT := c.Device().ReadRaw(256)
	macAddr, _ := c.Layout().DataMACAddr(256 / 64)
	oldMAC := c.Device().ReadRaw(macAddr)

	if now, err = c.WriteBlock(now, 256, &v2); err != nil {
		t.Fatal(err)
	}
	// Evict metadata so the controller re-reads... the counter is what
	// defeats the replay, and it lives in the (trusted) cache or the
	// tree; either way the MAC recomputation uses the *current* counter.
	ct, mac := oldCT, oldMAC
	c.Device().Write(256, &ct)
	c.Device().Write(macAddr, &mac)
	_, _, err = c.ReadBlock(now, 256)
	if !errors.Is(err, ErrMACMismatch) {
		t.Fatalf("replayed data read err = %v, want MAC mismatch", err)
	}
}

func TestFlushAllThenVerifyAll(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeSRC, ModeSAC} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCtrl(t, mode)
			lines := fill(2, 300)
			var now sim.Time
			var err error
			rng := rand.New(rand.NewSource(7))
			for i, l := range lines {
				addr := (uint64(rng.Intn(1 << 14))) * 64 // 1MB region, collisions OK
				if now, err = c.WriteBlock(now, addr, &l); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			now = c.FlushAll(now)
			if err := c.VerifyAll(); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

// With several bad data blocks VerifyAll names the lowest-addressed one on
// every run: it walks the device in ascending order.
func TestVerifyAllReportsLowestBadBlock(t *testing.T) {
	const low, high = 37 * 4096, 141 * 4096
	for run := 0; run < 20; run++ {
		c := newCtrl(t, ModeSRC)
		var now sim.Time
		var err error
		for i, l := range fill(3, 200) {
			if now, err = c.WriteBlock(now, uint64(i)*4096, &l); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		c.FlushAll(now)
		c.Device().CorruptLine(high)
		c.Device().CorruptLine(low)
		err = c.VerifyAll()
		if want := fmt.Sprintf("memctrl: verify: data block %#x uncorrectable", low); err == nil || err.Error() != want {
			t.Fatalf("run %d: VerifyAll = %v, want %q", run, err, want)
		}
	}
}

func TestEvictionsHappenAndAreMostlyLeafLevel(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	var now sim.Time
	var err error
	var l nvm.Line
	// Touch many distinct counter blocks (stride = 64 blocks * 64 B)
	// to overflow the tiny test metadata cache.
	for i := 0; i < 2000; i++ {
		addr := (uint64(i) * 4096) % (4 << 20)
		l[0] = byte(i)
		if now, err = c.WriteBlock(now, addr, &l); err != nil {
			t.Fatal(err)
		}
	}
	ms := c.MetaStats()
	if ms.DirtyTreeEvictions == 0 {
		t.Fatal("no metadata evictions despite thrashing")
	}
	leaf, total := ms.EvictionsByLevel[1], uint64(0)
	for _, n := range ms.EvictionsByLevel {
		total += n
	}
	if float64(leaf)/float64(total) < 0.5 {
		t.Fatalf("leaf evictions only %d of %d; lazy update should bias leaves", leaf, total)
	}
	// Upper levels must be rarer than lower levels overall (Fig 4).
	if top := ms.EvictionsByLevel[c.Layout().TopLevel()]; top > leaf {
		t.Fatalf("top-level evictions (%d) exceed leaf (%d)", top, leaf)
	}
}

func TestSRCWritesMoreThanBaselineSACMost(t *testing.T) {
	run := func(mode Mode) Stats {
		c := newCtrl(t, mode)
		var now sim.Time
		var err error
		var l nvm.Line
		for i := 0; i < 3000; i++ {
			addr := (uint64(i) * 4096) % (4 << 20)
			if now, err = c.WriteBlock(now, addr, &l); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	base := run(ModeBaseline)
	src := run(ModeSRC)
	sac := run(ModeSAC)
	if base.NVMWrites[WCClone] != 0 {
		t.Fatal("baseline produced clone writes")
	}
	if src.NVMWrites[WCClone] == 0 {
		t.Fatal("SRC produced no clone writes despite evictions")
	}
	if sac.NVMWrites[WCClone] < src.NVMWrites[WCClone] {
		t.Fatalf("SAC clones (%d) < SRC clones (%d)", sac.NVMWrites[WCClone], src.NVMWrites[WCClone])
	}
	if src.TotalNVMWrites() <= base.TotalNVMWrites() {
		t.Fatal("SRC total writes not above baseline")
	}
}

func TestMetadataFaultRepairedFromClone(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	var l nvm.Line
	l[0] = 0xAB
	now, err := c.WriteBlock(0, 0, &l)
	if err != nil {
		t.Fatal(err)
	}
	now = c.FlushAll(now)
	// Drop the cached copy so the next access re-reads NVM.
	c.mcache.DropAll()
	// Kill the home copy of counter block 0.
	c.Device().CorruptLine(c.Layout().NodeAddr(1, 0))
	got, _, err := c.ReadBlock(now, 0)
	if err != nil {
		t.Fatalf("read after metadata fault: %v", err)
	}
	if got != l {
		t.Fatal("wrong data after clone repair")
	}
	if c.FaultStats().Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", c.FaultStats().Repairs)
	}
	// Home copy purified.
	if r := c.Device().Read(c.Layout().NodeAddr(1, 0)); r.Uncorrectable {
		t.Fatal("home copy not purified")
	}
}

func TestBaselineMetadataFaultIsUnverifiable(t *testing.T) {
	c := newCtrl(t, ModeBaseline)
	var l nvm.Line
	now, err := c.WriteBlock(0, 0, &l)
	if err != nil {
		t.Fatal(err)
	}
	now = c.FlushAll(now)
	c.mcache.DropAll()
	c.Device().CorruptLine(c.Layout().NodeAddr(1, 0))
	_, _, err = c.ReadBlock(now, 0)
	if !errors.Is(err, ErrUnverifiable) {
		t.Fatalf("err = %v, want unverifiable", err)
	}
	fs := c.FaultStats()
	if fs.UnverifiableBytes != 64*64 {
		t.Fatalf("unverifiable bytes = %d, want 4096 (one counter block's coverage)", fs.UnverifiableBytes)
	}
	if fs.UDR(c.Layout().DataBytes) <= 0 {
		t.Fatal("UDR not recorded")
	}
}

func TestUpperLevelFaultLosesMoreCoverage(t *testing.T) {
	c := newCtrl(t, ModeBaseline)
	var l nvm.Line
	now, err := c.WriteBlock(0, 0, &l)
	if err != nil {
		t.Fatal(err)
	}
	now = c.FlushAll(now)
	c.mcache.DropAll()
	// Kill an L2 node: 8x the coverage of a counter block.
	c.Device().CorruptLine(c.Layout().NodeAddr(2, 0))
	if _, _, err = c.ReadBlock(now, 0); !errors.Is(err, ErrUnverifiable) {
		t.Fatalf("err = %v", err)
	}
	if got := c.FaultStats().UnverifiableBytes; got != 8*64*64 {
		t.Fatalf("L2 loss = %d bytes, want %d", got, 8*64*64)
	}
}

func TestCrashRecoveryPreservesData(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeSRC, ModeSAC} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCtrl(t, mode)
			lines := fill(3, 200)
			var now sim.Time
			var err error
			for i, l := range lines {
				addr := uint64(i) * 4096
				if now, err = c.WriteBlock(now, addr, &l); err != nil {
					t.Fatal(err)
				}
			}
			// Crash with plenty of dirty metadata in the cache.
			if len(c.mcache.DirtyLines()) == 0 {
				t.Fatal("test wants dirty state at crash")
			}
			c.Crash()
			if _, _, err := c.ReadBlock(now, 0); !errors.Is(err, ErrCrashed) {
				t.Fatal("controller served reads while crashed")
			}
			rep, err := c.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rep.RecoveredBlocks == 0 {
				t.Fatal("recovery reconstructed nothing despite dirty state")
			}
			if len(rep.FailedBlocks) != 0 || len(rep.LostSlots) != 0 {
				t.Fatalf("recovery losses: %+v", rep)
			}
			if err := c.VerifyAll(); err != nil {
				t.Fatalf("post-recovery verify: %v", err)
			}
			for i, l := range lines {
				got, nn, err := c.ReadBlock(now, uint64(i)*4096)
				if err != nil {
					t.Fatalf("post-recovery read %d: %v", i, err)
				}
				if got != l {
					t.Fatalf("post-recovery data mismatch at %d", i)
				}
				now = nn
			}
		})
	}
}

func TestCrashRecoveryWithShadowFaultSoteriaVsBaseline(t *testing.T) {
	prepare := func(mode Mode) (*Controller, sim.Time) {
		c := newCtrl(t, mode)
		var now sim.Time
		var err error
		var l nvm.Line
		l[0] = 0x77
		if now, err = c.WriteBlock(now, 0, &l); err != nil {
			t.Fatal(err)
		}
		c.Crash()
		// Find the shadow slot tracking counter block 0 and kill one
		// codeword in it.
		for s := uint64(0); s < c.Layout().ShadowEntries; s++ {
			addr := c.Layout().ShadowEntryAddr(s)
			raw := c.Device().ReadRaw(addr)
			if raw != (nvm.Line{}) {
				// Candidate valid entry: corrupt word 1 (first half).
				c.Device().CorruptWord(addr, 1)
			}
		}
		return c, now
	}

	// Soteria (duplicated halves): recovery survives.
	c, _ := prepare(ModeSRC)
	rep, err := c.Recover()
	if err != nil {
		t.Fatalf("SRC recover: %v", err)
	}
	if len(rep.LostSlots) != 0 || rep.HalfRepairs == 0 {
		t.Fatalf("SRC should half-repair: %+v", rep)
	}
	if err := c.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	// Anubis baseline (single copy): the entry is lost.
	c, _ = prepare(ModeBaseline)
	rep, err = c.Recover()
	if err != nil {
		t.Fatalf("baseline recover: %v", err)
	}
	if len(rep.LostSlots) == 0 {
		t.Fatal("baseline recovery should lose the corrupted shadow entry")
	}
}

func TestPageReencryptionOnMinorOverflow(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	var now sim.Time
	var err error
	other := nvm.Line{1: 0xEE}
	// Populate a sibling block in the same page so re-encryption has
	// real work to do.
	if now, err = c.WriteBlock(now, 64, &other); err != nil {
		t.Fatal(err)
	}
	var l nvm.Line
	for i := 0; i <= 63; i++ { // 64 writes: minor 0 -> 63 -> overflow
		l[0] = byte(i)
		if now, err = c.WriteBlock(now, 0, &l); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if c.Stats().PageReencrypt != 1 {
		t.Fatalf("page re-encryptions = %d, want 1", c.Stats().PageReencrypt)
	}
	// Both blocks still read back correctly.
	got, now, err := c.ReadBlock(now, 0)
	if err != nil || got != l {
		t.Fatalf("block 0 after re-encryption: %v", err)
	}
	got, _, err = c.ReadBlock(now, 64)
	if err != nil || got != other {
		t.Fatalf("sibling after re-encryption: %v", err)
	}
	now = c.FlushAll(now)
	if err := c.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestOsirisBoundForcesWriteback(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	var now sim.Time
	var err error
	var l nvm.Line
	for i := 0; i < osirisLimit+2; i++ {
		if now, err = c.WriteBlock(now, 0, &l); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().ForcedWB == 0 {
		t.Fatal("Osiris bound never forced a write-back")
	}
}

func TestCrashRecoveryAfterManyUpdatesWithinOsirisBound(t *testing.T) {
	// Several in-cache updates to multiple slots, then crash: Osiris
	// must recover every minor by data-MAC trials.
	c := newCtrl(t, ModeSRC)
	var now sim.Time
	var err error
	lines := fill(4, 5)
	for round := 0; round < 3; round++ {
		for i := range lines {
			lines[i][0] = byte(round*10 + i)
			if now, err = c.WriteBlock(now, uint64(i)*64, &lines[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		got, nn, err := c.ReadBlock(now, uint64(i)*64)
		if err != nil || got != lines[i] {
			t.Fatalf("block %d after recovery: %v", i, err)
		}
		now = nn
	}
	if err := c.VerifyAll(); err == nil {
		// VerifyAll requires a flushed cache; flush then verify.
	}
	c.FlushAll(now)
	if err := c.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNonSecureUncorrectableSurfaces(t *testing.T) {
	c := newCtrl(t, ModeNonSecure)
	var l nvm.Line
	now, err := c.WriteBlock(0, 0, &l)
	if err != nil {
		t.Fatal(err)
	}
	c.Device().CorruptWord(0, 0)
	if _, _, err := c.ReadBlock(now, 0); !errors.Is(err, ErrDataError) {
		t.Fatalf("err = %v, want data error", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	var l nvm.Line
	now, err := c.WriteBlock(0, 0, &l)
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = c.ReadBlock(now, 0); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.MemRequests != 2 || s.DataReads != 1 || s.DataWrites != 1 {
		t.Fatalf("request accounting: %+v", s)
	}
	if s.NVMWrites[WCData] != 1 {
		t.Fatalf("data writes = %d", s.NVMWrites[WCData])
	}
	if s.NVMWrites[WCDataMAC] == 0 || s.NVMWrites[WCShadow] == 0 {
		t.Fatalf("MAC/shadow writes missing: %+v", s.NVMWrites)
	}
	c.ResetStats()
	if c.Stats().MemRequests != 0 {
		t.Fatal("reset failed")
	}
	_ = now
}

func TestRejectsBadAddresses(t *testing.T) {
	c := newCtrl(t, ModeSRC)
	if _, _, err := c.ReadBlock(0, 3); err == nil {
		t.Fatal("unaligned read accepted")
	}
	if _, err := c.WriteBlock(0, c.cfg.NVM.CapacityBytes, &nvm.Line{}); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

// TestSystem's layout is pinned: the shadow BMT's nodes are on chip, but
// the range they once occupied stays reserved, so every clone region keeps
// the address (and bank) every committed result was measured with.
func TestSystemLayoutPinned(t *testing.T) {
	for _, tc := range []struct {
		mode     Mode
		strategy string
		clones   [][]uint64 // per level
		total    uint64
	}{
		{ModeSRC, "soteria", [][]uint64{{0x494940}, {0x4a4940}, {0x4a6940}, {0x4a6d40}}, 0x4a6dc0},
		{ModeSAC, "soteria", [][]uint64{{0x494940}, {0x4a4940}, {0x4a6940, 0x4a6d40}, {0x4a7140, 0x4a71c0, 0x4a7240, 0x4a72c0}}, 0x4a7340},
		{ModeSAC, "anubis-shadow", [][]uint64{{0x496dc0}, {0x4a6dc0}, {0x4a8dc0, 0x4a91c0}, {0x4a95c0, 0x4a9640, 0x4a96c0, 0x4a9740}}, 0x4a97c0},
	} {
		c, err := New(config.TestSystem(), tc.mode, []byte("test-key"), Options{Strategy: tc.strategy})
		if err != nil {
			t.Fatal(err)
		}
		l := c.Layout()
		var got [][]uint64
		for _, li := range l.Levels {
			got = append(got, li.CloneBases)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.clones) || l.Total != tc.total {
			t.Errorf("%v/%s: clone bases %#x total %#x, want %#x total %#x", tc.mode, tc.strategy, got, l.Total, tc.clones, tc.total)
		}
	}
}
