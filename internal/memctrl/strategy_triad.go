package memctrl

import (
	"errors"
	"fmt"
	"slices"

	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/wpq"
)

// triadBumpLimit bounds how many times a relaxed node's slot may be bumped
// in cache before the node is queued for a deferred write-back — the relaxed
// analogue of the leaf Osiris update bound.
const triadBumpLimit = 64

// triadWindow is the recovery search window: the maximum distance between a
// stored parent-slot counter and the counter a child's persisted MAC was
// computed under. Drift accrues up to triadBumpLimit before the parent is
// queued, plus whatever the remainder of the in-flight operation adds before
// the queue drains (generously bounded by the cascade guard).
const triadWindow = triadBumpLimit + 2*maxCascade + 16

// triadStrategy is Triad-NVM's selective persistence (Alwadi et al.): tree
// levels <= persistLevels are written to NVM inside the sealed data-commit
// transaction, while higher ("relaxed") levels stay lazy and are re-derived
// after a crash by bounded counter search upward from the persisted levels.
// No shadow region is reserved at all — the scheme trades recovery-time tree
// reconstruction (work proportional to the materialized tree, not the cache)
// for zero steady-state tracking writes.
type triadStrategy struct {
	// persistLevels is the threshold N: levels 1..N persist on every data
	// write, levels N+1..top are relaxed.
	persistLevels int

	// deferForce queues relaxed nodes whose in-cache drift crossed
	// triadBumpLimit; drained by afterOp outside any seal. deferSet
	// deduplicates the queue.
	deferForce []uint64
	deferSet   map[uint64]bool
}

func (s *triadStrategy) name() string {
	if s.persistLevels == 1 {
		return "triad-nvm"
	}
	return fmt.Sprintf("triad-nvm-%d", s.persistLevels)
}

// shadowLines: none. Triad keeps no tracking table.
func (s *triadStrategy) shadowLines(cacheSlots uint64) uint64 { return 0 }

func (s *triadStrategy) install(c *Controller) error {
	top := c.layout.TopLevel()
	if s.persistLevels < 1 || s.persistLevels >= top {
		return fmt.Errorf("memctrl: triad persisted-level threshold %d outside [1,%d)", s.persistLevels, top)
	}
	s.deferSet = make(map[uint64]bool)
	return nil
}

// onDirty watches relaxed-level drift: once any slot of a relaxed node has
// absorbed triadBumpLimit bumps since its last write-back, the node is
// queued for a deferred force so the recovery search window stays sound.
func (s *triadStrategy) onDirty(c *Controller, home uint64, way int) {
	blk := c.mcache.At(way)
	if blk.Kind != metacache.KindNode || blk.Level <= s.persistLevels {
		return
	}
	if s.deferSet[home] {
		return
	}
	over := false
	for _, n := range blk.UpdatesPerSlot[:itree.CountersPerNode] {
		if n >= triadBumpLimit {
			over = true
			break
		}
	}
	if !over {
		return
	}
	s.deferSet[home] = true
	s.deferForce = append(s.deferForce, home)
}

// commitLeaf persists the leaf counter block and its ancestors up to the
// persisted-level threshold. The caller holds the data-commit seal, so the
// chain lands atomically with the ciphertext and data MAC — a crash can
// never strand an acknowledged write behind an unpersisted counter.
func (s *triadStrategy) commitLeaf(c *Controller, home uint64, way int) error {
	blk := c.mcache.At(way)
	level, index := blk.Level, blk.Index
	for level <= s.persistLevels {
		h := c.layout.NodeAddr(level, index)
		if c.mcache.IsDirty(h) {
			if err := c.forceWriteback(h); err != nil {
				return err
			}
		}
		_, pindex, _, stored := c.layout.Parent(level, index)
		if !stored {
			break
		}
		level, index = level+1, pindex
	}
	return nil
}

// needsForce: never. The leaf is force-written by commitLeaf on every data
// write, so its drift is always zero and the Osiris bound is moot.
func (s *triadStrategy) needsForce(c *Controller, blk *metacache.Block, slot int) bool {
	return false
}

// afterOp drains the deferred-force queue outside any seal. A node that went
// clean in the meantime (eviction, FlushAll) is skipped; an unverifiable
// parent chain loses the update, accounted exactly like FlushAll does. A
// node refused with ErrSetCapacity stays dirty, and its next bump queues it
// again: only a bump adds drift, so it is retried whenever drift grows.
func (s *triadStrategy) afterOp(c *Controller) error {
	if len(s.deferForce) == 0 {
		return nil
	}
	// Index-based loop: a force can bump (and queue) ancestors, appending
	// to the slice mid-drain.
	for i := 0; i < len(s.deferForce); i++ {
		home := s.deferForce[i]
		delete(s.deferSet, home)
		if !c.mcache.IsDirty(home) {
			continue
		}
		if err := c.forceWriteback(home); err != nil && !errors.Is(err, ErrSetCapacity) {
			c.stats.RecoveryLost++
			c.mcache.CleanLine(home)
		}
	}
	s.deferForce = s.deferForce[:0]
	return nil
}

func (s *triadStrategy) onCrash(c *Controller) {
	s.deferForce = s.deferForce[:0]
	clear(s.deferSet)
}

// storedSlot reads the smallest readable stored value of one parent slot
// (home or clone; the copies agree unless faulted, and a faulted copy must
// not inflate the search base past the true counter).
func (s *triadStrategy) storedSlot(c *Controller, level int, index uint64, slot int) uint64 {
	var best uint64
	found := false
	for _, a := range c.layout.CopyAddrs(level, index) {
		if !c.dev.Materialized(a) {
			continue
		}
		r := c.dev.Read(a)
		if r.Uncorrectable {
			continue
		}
		line := r.Data
		n := itree.DeserializeNode(&line)
		v := n.Counters[slot] & itree.CounterMask
		if !found || v < best {
			best, found = v, true
		}
	}
	return best
}

// recover re-derives the relaxed tree levels from the persisted ones.
//
// Pass 1 walks every materialized leaf counter block and pins its parent
// slot exactly: the leaf's stored MAC was computed under the parent's
// current (possibly never-persisted) counter, which a bounded search from
// the stored value recovers — the same trick Osiris plays for leaf minors,
// one level up. Pass 2 closes the live tree upward, fencing every ancestor
// slot at stored+window+1: strictly above any counter an old child version
// could have been MACed under, so nothing stale can be replayed into the
// rebuilt tree. The write pass then re-MACs and rewrites every rebuilt node
// bottom-up (level-2 content is exact; higher contents are fresh fences).
//
// The whole procedure reads persisted state and writes idempotent
// derivations of it, so a crash at any point during recovery just makes the
// next attempt start over — fences move further up, which is always legal.
func (s *triadStrategy) recover(c *Controller) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	top := c.layout.TopLevel()

	type rbNode struct {
		counters [8]uint64
		live     [8]bool
	}
	rebuild := make([]map[uint64]*rbNode, top+1)
	for l := 2; l <= top; l++ {
		rebuild[l] = make(map[uint64]*rbNode)
	}
	getNode := func(level int, index uint64) *rbNode {
		n := rebuild[level][index]
		if n == nil {
			n = &rbNode{}
			rebuild[level][index] = n
		}
		return n
	}

	// Pass 1: exact parent counters for every materialized leaf.
	for idx := uint64(0); idx < c.layout.Levels[0].Nodes; idx++ {
		if !c.dev.Materialized(c.layout.NodeAddr(1, idx)) && !c.anyCloneMaterialized(1, idx) {
			continue
		}
		rep.TrackedEntries++
		_, pindex, slot, stored := c.layout.Parent(1, idx)
		var base uint64
		if stored {
			base = s.storedSlot(c, 2, pindex, slot)
		} else {
			base = c.root.Counters[slot]
		}
		exact, found := uint64(0), false
		for _, a := range c.layout.CopyAddrs(1, idx) {
			r := c.dev.Read(a)
			if r.Uncorrectable {
				continue
			}
			line := r.Data
			if v, ok := recoverValue(base, triadWindow, func(v uint64) bool {
				return c.verifyLine(1, idx, v&itree.CounterMask, &line)
			}); ok {
				exact, found = v&itree.CounterMask, true
				break
			}
		}
		if found {
			rep.RecoveredBlocks++
			c.stats.RecoveredOK++
		} else {
			rep.FailedBlocks = append(rep.FailedBlocks, FailedBlock{
				Addr:   c.layout.NodeAddr(1, idx),
				Reason: "no leaf copy verifies within the Triad search window",
			})
			c.stats.RecoveryLost++
		}
		if !stored {
			continue // degenerate single-level tree: the root register is exact
		}
		pn := getNode(2, pindex)
		pn.live[slot] = true
		if found {
			pn.counters[slot] = exact
		} else {
			// Fence an unrecoverable leaf's slot above anything its MAC
			// could have been computed under.
			pn.counters[slot] = (base + triadWindow + 1) & itree.CounterMask
		}
	}
	c.note("recover-load-done")

	// Pass 2: close the live tree upward with replay fences. A relaxed
	// node is materialized only if it was once written back, which requires
	// a bumped slot, which requires a materialized child — so the upward
	// closure of the live leaves covers every materialized node.
	for level := 2; level < top; level++ {
		for index := range rebuild[level] {
			_, pindex, slot, _ := c.layout.Parent(level, index)
			pn := getNode(level+1, pindex)
			if !pn.live[slot] {
				pn.live[slot] = true
				base := s.storedSlot(c, level+1, pindex, slot)
				pn.counters[slot] = (base + triadWindow + 1) & itree.CounterMask
			}
		}
	}

	// Write pass: re-MAC and rewrite every rebuilt node, home plus clones
	// atomically, in deterministic order. Counters at all levels are final
	// before the first MAC is computed.
	for level := 2; level <= top; level++ {
		idxs := make([]uint64, 0, len(rebuild[level]))
		for index := range rebuild[level] {
			idxs = append(idxs, index)
		}
		slices.Sort(idxs)
		for _, index := range idxs {
			var node itree.Node
			node.Counters = rebuild[level][index].counters
			var pctr uint64
			_, pindex, slot, stored := c.layout.Parent(level, index)
			if !stored {
				c.root.Increment(slot)
				pctr = c.root.Counters[slot]
			} else {
				pctr = rebuild[level+1][pindex].counters[slot]
			}
			node.MAC = node.ContentMAC(c.eng, level, index, pctr)
			line := node.Serialize()
			addrs := c.layout.CopyAddrs(level, index)
			writes := make([]wpq.Write, len(addrs))
			for i, a := range addrs {
				writes[i] = wpq.Write{Addr: a, Data: line}
			}
			c.now = c.q.PushAtomic(c.now, writes)
			c.stats.NVMWrites[WCRecovery] += uint64(len(addrs))
		}
	}

	c.crashed = false
	c.recovering = false
	c.FlushAll(c.now)
	c.note("recover-done")
	return rep, nil
}
