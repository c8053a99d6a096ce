package memctrl

import (
	"errors"
	"testing"

	"soteria/internal/config"
)

// A write that returns an error must not be durable. This one is:
//
//   - L2[28], the parent of the leaf L1[230] that covers 0xe6180, is not
//     resident and has one dead word in NVM; the leaf is resident.
//   - WriteBlock finds the leaf in cache and pushes the ciphertext and
//     its MAC inside the "data-commit" seal.
//   - Still inside the seal, triad's commitLeaf force-writes the leaf,
//     whose parent counter lives in the unverifiable L2[28], and fails.
//
// The write returns ErrUnverifiable, yet the data and MAC are in NVM and
// the bumped counter is in the cache, so the new value reads back. The
// Osiris needForce and eager write-backs after the seal order their
// failures the same way.
//
// `go run ./cmd/chaos -seed 14 -writes 200 -mode baseline -strategy
// triad-nvm-2 -fault-rate 0.01` hits it as "silent corruption at
// 0xe6180". The fix is ROADMAP item 1's up-front path plan: fetch and
// verify the whole path before the seal opens. Whether such a pre-seal
// fetch may reorder cache fills is not yet checked.
func TestFailedWriteIsNotDurable(t *testing.T) {
	t.Skip("known defect, ROADMAP item 1 (failed commit is durable): un-skip with the path plan")
	c, err := New(config.TestSystem(), ModeBaseline, []byte("test-key"), Options{Strategy: "triad-nvm-2"})
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0xe6180
	lines := fill(14, 2)
	now, err := c.WriteBlock(0, addr, &lines[0])
	if err != nil {
		t.Fatal(err)
	}
	// triad-nvm-2 persisted L1 and L2 with the write, so L2[28] is clean
	// and may leave the cache without a write-back.
	parent := c.layout.NodeAddr(2, 28)
	if c.mcache.IsDirty(parent) || !c.mcache.Invalidate(parent) {
		t.Fatal("L2[28] not resident and clean after the first write")
	}
	c.dev.CorruptWord(parent, 0)

	now, err = c.WriteBlock(now, addr, &lines[1])
	if !errors.Is(err, ErrUnverifiable) {
		t.Fatalf("write under a dead parent: err = %v, want ErrUnverifiable", err)
	}
	if got, _, err := c.ReadBlock(now, addr); err == nil && got == lines[1] {
		t.Fatal("a write that returned ErrUnverifiable is durable and reads back")
	}
}
