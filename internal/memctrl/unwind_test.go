package memctrl

import (
	"testing"

	"soteria/internal/config"
	"soteria/internal/ctrenc"
	"soteria/internal/inject"
	"soteria/internal/nvm"
)

// bug is a panic value that is not inject.PowerLoss: a defect somewhere
// under the write path, not a simulated crash.
type bug struct{}

// panicAtCommit panics with bug{} at the next data-commit seal while
// armed, then disarms.
type panicAtCommit struct{ armed bool }

func (h *panicAtCommit) Event(ev inject.Event) {
	if h.armed && ev.Kind == inject.SealBegin && ev.Label == "data-commit" {
		h.armed = false
		panic(bug{})
	}
}

// TestWritePanicReleasesLeafPin: a panic unwinding WriteBlock from inside
// its data-commit seal still releases the pin the write holds on its leaf.
// One panicking write per way of a metadata-cache set leaves that set full
// of the panicked writes' leaves; a later write whose leaf maps to the
// same set must evict one of them, which a leftover pin would refuse with
// ErrSetCapacity.
func TestWritePanicReleasesLeafPin(t *testing.T) {
	sys := config.TestSystem()
	c, err := New(sys, ModeSRC, []byte("unwind"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := &panicAtCommit{}
	c.SetHook(h)

	ways := sys.Security.MetadataCache.Ways
	sets := uint64(sys.Security.MetadataCache.Sets())
	setOf := func(leaf uint64) uint64 { return c.layout.NodeAddr(1, leaf) / nvm.LineSize % sets }
	var leaves []uint64
	for leaf := uint64(0); len(leaves) <= ways; leaf++ {
		if leaf*ctrenc.CountersPerBlock >= c.layout.DataBlocks {
			t.Fatalf("only %d leaves share leaf 0's set", len(leaves))
		}
		if setOf(leaf) == setOf(0) {
			leaves = append(leaves, leaf)
		}
	}
	addrOf := func(leaf uint64) uint64 { return leaf * ctrenc.CountersPerBlock * nvm.LineSize }

	var line [nvm.LineSize]byte
	now := c.DrainWPQ(0)
	for _, leaf := range leaves[:ways] {
		h.armed = true
		var err error
		func() {
			defer func() {
				if p := recover(); p != (bug{}) {
					t.Fatalf("write to leaf %d: recovered %v (error %v), want the injected panic", leaf, p, err)
				}
			}()
			_, err = c.WriteBlock(now, addrOf(leaf), &line)
		}()
	}
	last := leaves[ways]
	if _, err := c.WriteBlock(now, addrOf(last), &line); err != nil {
		t.Fatalf("write to leaf %d after %d panicked writes in its set: %v", last, ways, err)
	}
}
