package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"soteria/internal/config"
)

// The set-conflict defect class: the integrity-tree level regions are
// laid out back to back with power-of-two sizes and the metadata cache's
// set index is the line address's low bits, so one leaf's whole chain
// plus its MAC line aliases into one set. With too few ways a way that
// is still in use gets evicted. Each test below replays a uniform random
// write stream on an empty ModeSRC controller and fails today; they stay
// skipped until the fix lands, and un-skipping them is that fix's
// acceptance test.
const setConflictDefect = "known set-conflict defect, ROADMAP item 1 (Pin): un-skip with the fix"

// uniformWrites issues n zero-filled WriteBlocks to uniformly random
// lines (math/rand, seed) of an empty controller with the given capacity
// and, if non-nil, metadata-cache geometry. It returns the first error or
// panic with the index of the write that raised it.
func uniformWrites(capacity uint64, mcache *config.CacheConfig, seed int64, n int) (err error) {
	sys := config.TestSystem()
	sys.NVM.CapacityBytes = capacity
	if mcache != nil {
		sys.Security.MetadataCache = *mcache
	}
	c, err := New(sys, ModeSRC, []byte("set-conflict"), Options{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	lines := int64(capacity / 64)
	var line [64]byte
	now := c.DrainWPQ(0)
	i := 0
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("write %d: panic: %v", i, p)
		}
	}()
	for ; i < n; i++ {
		if now, err = c.WriteBlock(now, uint64(rng.Int63n(lines))*64, &line); err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
	}
	return nil
}

// TestSetConflictTamper64MB: 4-way (the TestSystem default), 64 MB,
// seed 3 — returns ErrTamper L4[0] at write 2 896 on untampered data.
func TestSetConflictTamper64MB(t *testing.T) {
	t.Skip(setConflictDefect)
	if err := uniformWrites(64<<20, nil, 3, 4000); err != nil {
		t.Fatal(err)
	}
}

// TestSetConflictPreCleanLivelock: the same stream with a 2-way, 4 KB
// metadata cache panics "victim pre-clean failed to converge" (write 183).
func TestSetConflictPreCleanLivelock(t *testing.T) {
	t.Skip(setConflictDefect)
	mc := config.CacheConfig{SizeBytes: 4 << 10, Ways: 2, LatencyCycles: 3}
	if err := uniformWrites(64<<20, &mc, 3, 4000); err != nil {
		t.Fatal(err)
	}
}

// TestSetConflictMinorOverflow2MB: 2 MB, seed 1 panics "minor overflow
// immediately after page re-encryption" at write 1 443 437 (about 5 s).
func TestSetConflictMinorOverflow2MB(t *testing.T) {
	t.Skip(setConflictDefect)
	if err := uniformWrites(2<<20, nil, 1, 1_500_000); err != nil {
		t.Fatal(err)
	}
}
