package memctrl

import (
	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/shadow"
	"soteria/internal/telemetry"
)

// soteriaStrategy is the paper's scheme: an Anubis shadow table with one
// entry per metadata-cache way, each entry holding the tracked block's
// 16-bit counter LSBs plus a keyed content MAC, duplicated into two
// independently decodable halves (Soteria's resilience twist). Recovery
// patches stale NVM copies with the LSBs — leaf minors through Osiris
// trials against the persisted data MACs — and accepts a reconstruction
// exactly when it reproduces the entry MAC.
type soteriaStrategy struct{}

func (s *soteriaStrategy) name() string { return "soteria" }

// shadowLines: one shadow line per cache slot (the entry); the BMT over
// them is on chip.
func (s *soteriaStrategy) shadowLines(cacheSlots uint64) uint64 { return cacheSlots }

// install builds the shadow table over the reserved region; those boot-time
// writes go straight to the device (bootstrap is set by the caller).
func (s *soteriaStrategy) install(c *Controller) error {
	tbl, err := shadow.NewTable(c.eng, c.shadowStore(), c.layout.ShadowBase, c.layout.ShadowEntries,
		0, c.shadowOptions())
	if err != nil {
		return err
	}
	c.shadow = tbl
	c.shadowTree = tbl.Tree()
	return nil
}

func (s *soteriaStrategy) onDirty(c *Controller, home uint64) { c.shadowUpdate(home) }

func (s *soteriaStrategy) onClean(c *Controller, home uint64) {
	if slot := c.mcache.SlotOf(home); slot >= 0 && c.shadow != nil {
		c.invalidateSlot(slot)
	}
}

func (s *soteriaStrategy) onDrop(c *Controller, home uint64) {
	if slot := c.mcache.SlotOf(home); slot >= 0 && c.shadow != nil {
		c.invalidateSlot(slot)
	}
}

func (s *soteriaStrategy) commitLeaf(c *Controller, home uint64) error {
	c.shadowUpdate(home)
	return nil
}

// needsForce enforces the Osiris bound: the counter may not drift further
// from its NVM copy than recovery can search.
func (s *soteriaStrategy) needsForce(c *Controller, blk *metacache.Block, slot int) bool {
	return !c.eager && blk.UpdatesPerSlot[slot] >= uint32(c.osirisLimit)
}

func (s *soteriaStrategy) afterOp(c *Controller) error { return nil }

// onCrash drops the volatile table handle; its BMT survives in
// c.shadowTree.
func (s *soteriaStrategy) onCrash(c *Controller) { c.shadow = nil }

func (s *soteriaStrategy) retireSlot(c *Controller, slot int) { c.invalidateSlot(slot) }

func (s *soteriaStrategy) trackedSlots(c *Controller) []uint64 {
	if c.shadow == nil {
		return nil
	}
	return c.shadow.ValidSlots()
}

func (s *soteriaStrategy) shadowStats(c *Controller) shadow.Stats {
	if c.shadow == nil {
		return shadow.Stats{}
	}
	return c.shadow.Stats()
}

func (s *soteriaStrategy) attachTelemetry(c *Controller, r *telemetry.Registry) {
	if c.shadow != nil {
		c.shadow.AttachTelemetry(r)
	}
}

// recover rebuilds a consistent, verifiable memory image after Crash():
//
//  1. Reattach the shadow table to its BMT, which survived on chip; read
//     every entry, repairing half-dead entries from their Soteria
//     duplicates.
//  2. Reconstruct each tracked metadata block independently: a stale NVM
//     copy (home or any clone) plus the entry's 16-bit counter LSBs; leaf
//     minors come back through Osiris trials against the persisted data
//     MACs. A reconstruction is accepted exactly when it reproduces the
//     keyed MAC captured in its shadow entry, which makes recovery
//     insensitive to the order in which a crash tore parent and child
//     write-backs.
//  3. Reseed and flush (reseedRecovered). At every instant each tracked
//     block is described by at least one durable entry, and entries for
//     the same block only coexist while content-identical, so a crash
//     *during* recovery loses nothing: the next Recover starts over.
//  4. Finally clear whatever slots remain valid (unreconstructible blocks,
//     already counted as lost).
func (s *soteriaStrategy) recover(c *Controller) (*RecoveryReport, error) {
	tbl := shadow.Attach(c.eng, c.shadowStore(), c.layout.ShadowBase, c.layout.ShadowEntries,
		c.shadowTree, c.shadowOptions())
	c.shadow = tbl
	if c.telReg != nil {
		tbl.AttachTelemetry(c.telReg)
	}

	slotEntries, lostSlots := tbl.LoadAllSlots()
	rep := &RecoveryReport{TrackedEntries: len(slotEntries), LostSlots: lostSlots, HalfRepairs: tbl.Stats().HalfRepairs}
	c.stats.RecoveryLost += uint64(len(lostSlots))
	c.tel.recoveryLost.Add(uint64(len(lostSlots)))
	c.note("recover-load-done")

	// Reconstruct every tracked block. Entries are self-contained (the
	// entry MAC is the acceptance test), so no ordering between levels is
	// needed. Duplicate entries for the same block are a legal artifact of
	// crashing an earlier recovery between re-tracking and slot cleanup,
	// and the copies can disagree: the fresher one has absorbed the
	// parent-counter bumps of that recovery's flush. Every entry is tried,
	// and when several reconstruct, the one with the largest counters wins
	// — counters only ever grow, so picking a smaller reconstruction would
	// roll the block (and, silently, its already-flushed children) back.
	recovered := make(map[uint64]metacache.Block)
	failReason := make(map[uint64]string)
	slotsOf := make(map[uint64][]uint64)
	for _, se := range slotEntries {
		e := se.Entry
		loc := c.layout.Locate(e.Addr)
		if loc.Kind != itree.RegionMetadata {
			rep.FailedBlocks = append(rep.FailedBlocks,
				FailedBlock{Addr: e.Addr, Reason: "shadow entry outside the metadata region"})
			c.stats.RecoveryLost++
			c.tel.recoveryLost.Inc()
			continue
		}
		slotsOf[e.Addr] = append(slotsOf[e.Addr], se.Slot)
		blk, err := c.recoverBlock(loc.Level, loc.Index, e)
		if err != nil {
			if _, seen := failReason[e.Addr]; !seen {
				failReason[e.Addr] = err.Error()
			}
			continue
		}
		if prev, dup := recovered[e.Addr]; !dup || counterTotal(&blk) > counterTotal(&prev) {
			recovered[e.Addr] = blk
		}
	}
	reported := make(map[uint64]bool)
	for _, se := range slotEntries {
		addr := se.Entry.Addr
		if c.layout.Locate(addr).Kind != itree.RegionMetadata {
			continue
		}
		if _, ok := recovered[addr]; ok || reported[addr] {
			continue
		}
		reported[addr] = true
		rep.FailedBlocks = append(rep.FailedBlocks, FailedBlock{Addr: addr, Reason: failReason[addr]})
		c.stats.RecoveryLost++
		c.tel.recoveryLost.Inc()
	}
	rep.RecoveredBlocks = len(recovered)
	c.stats.RecoveredOK += uint64(len(recovered))
	c.tel.recoveredOK.Add(uint64(len(recovered)))

	// Fresh volatile state: seed the cache with the reconstructed blocks
	// as dirty — which writes their entries at their new slots — and flush
	// through the ordinary write-back path. The shadow table has one slot
	// per cache way and the tracked blocks were simultaneously resident
	// before the crash, so reinsertion cannot evict.
	if err := c.reseedRecovered(recovered, slotsOf); err != nil {
		return rep, err
	}

	// Cleanup: the flush untracked the re-seeded blocks; what remains
	// valid is stale pre-crash entries at old slots (the blocks moved
	// ways) plus anything the flush had to abandon.
	if err := c.wipeSlots(tbl.Reset, tbl.ValidSlots(), lostSlots); err != nil {
		return rep, err
	}
	c.note("recover-done")
	return rep, nil
}
