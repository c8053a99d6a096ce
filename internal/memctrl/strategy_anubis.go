package memctrl

import (
	"fmt"

	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/shadow"
	"soteria/internal/telemetry"
)

// anubisStrategy is the Anubis SMC-style full-content shadow scheme (Huang
// & Hua): every dirty metadata block's complete 64-byte image is persisted
// in a content table, so recovery simply replays the images — no Osiris
// trials, no stale-copy patching, near-constant work per tracked entry.
// The trade-offs against Soteria: twice the shadow-region footprint, two
// shadow lines per update instead of one, and no duplicated-half
// resilience (an uncorrectable error in a tracked entry loses it, the gap
// Soteria's Fig 8b closes).
type anubisStrategy struct {
	tbl   *shadow.ContentTable
	root  uint64 // persistent on-chip register: the content-table BMT root
	slots uint64
}

func (s *anubisStrategy) name() string { return "anubis-shadow" }

// shadowLines: two shadow lines (header + image) per cache slot.
func (s *anubisStrategy) shadowLines(cacheSlots uint64) uint64 {
	return cacheSlots * shadow.ContentLinesPerSlot
}

func (s *anubisStrategy) install(c *Controller) error {
	slots := c.layout.ShadowEntries / shadow.ContentLinesPerSlot
	tbl, err := shadow.NewContentTable(c.eng, c.shadowStore(), c.layout.ShadowBase, slots,
		c.layout.ShadowTreeBase)
	if err != nil {
		return err
	}
	s.tbl = tbl
	s.root = tbl.Root()
	s.slots = slots
	return nil
}

// update (re)writes the full-content entry for the dirty block at home —
// the Anubis shadow-log write, header and image in one crash-atomic
// shadow-table operation.
func (s *anubisStrategy) update(c *Controller, home uint64) {
	if s.tbl == nil {
		return
	}
	blk, ok := c.mcache.Peek(home)
	if !ok || blk.Kind == metacache.KindMAC {
		return
	}
	slot := c.mcache.SlotOf(home)
	line := serializeBlock(blk)
	c.seal("shadow-op")
	err := s.tbl.Write(slot, home, &line)
	c.unseal("shadow-op")
	if err != nil {
		panic(fmt.Sprintf("memctrl: content shadow write: %v", err))
	}
}

func (s *anubisStrategy) invalidate(c *Controller, slot int) {
	c.seal("shadow-op")
	err := s.tbl.Invalidate(slot)
	c.unseal("shadow-op")
	if err != nil {
		panic(fmt.Sprintf("memctrl: content shadow invalidate: %v", err))
	}
}

func (s *anubisStrategy) onDirty(c *Controller, home uint64) { s.update(c, home) }

func (s *anubisStrategy) onClean(c *Controller, home uint64) {
	if slot := c.mcache.SlotOf(home); slot >= 0 && s.tbl != nil {
		s.invalidate(c, slot)
	}
}

func (s *anubisStrategy) onDrop(c *Controller, home uint64) {
	if slot := c.mcache.SlotOf(home); slot >= 0 && s.tbl != nil {
		s.invalidate(c, slot)
	}
}

func (s *anubisStrategy) commitLeaf(c *Controller, home uint64) error {
	s.update(c, home)
	return nil
}

// needsForce: never. The content entry is the exact in-cache image, so
// counters may drift arbitrarily far from their NVM copies — there is no
// bounded search at recovery to stay within.
func (s *anubisStrategy) needsForce(c *Controller, blk *metacache.Block, slot int) bool {
	return false
}

func (s *anubisStrategy) afterOp(c *Controller) error { return nil }

func (s *anubisStrategy) onCrash(c *Controller) {
	if s.tbl != nil {
		s.root = s.tbl.Root()
		s.tbl = nil
	}
}

func (s *anubisStrategy) retireSlot(c *Controller, slot int) { s.invalidate(c, slot) }

func (s *anubisStrategy) trackedSlots(c *Controller) []uint64 {
	if s.tbl == nil {
		return nil
	}
	return s.tbl.ValidSlots()
}

func (s *anubisStrategy) shadowStats(c *Controller) shadow.Stats {
	if s.tbl == nil {
		return shadow.Stats{}
	}
	return s.tbl.Stats()
}

func (s *anubisStrategy) attachTelemetry(c *Controller, r *telemetry.Registry) {
	if s.tbl != nil {
		s.tbl.AttachTelemetry(r)
	}
}

// recover reattaches the content table using the persistent BMT root,
// replays every tracked block's exact image, reseeds and flushes. Each
// entry already carries a verified image (BMT plus header MAC), so there
// is no reconstruction step to fail: an entry either loads or its slot is
// lost.
func (s *anubisStrategy) recover(c *Controller) (*RecoveryReport, error) {
	root := s.root
	if s.tbl != nil {
		// A previous Recover attempt was interrupted after installing the
		// table; its root is the current one.
		root = s.tbl.Root()
		s.tbl = nil
	}
	tbl, err := shadow.AttachContent(c.eng, c.shadowStore(), c.layout.ShadowBase, s.slots,
		c.layout.ShadowTreeBase, root)
	if err != nil {
		return nil, err
	}
	// Install immediately: every shadow mutation from here on lands in the
	// live table, so a nested crash re-captures a root that matches NVM.
	s.tbl = tbl
	if c.telReg != nil {
		tbl.AttachTelemetry(c.telReg)
	}

	entries, lostSlots := tbl.LoadAllSlots()
	rep := &RecoveryReport{TrackedEntries: len(entries), LostSlots: lostSlots}
	c.stats.RecoveryLost += uint64(len(lostSlots))
	c.tel.recoveryLost.Add(uint64(len(lostSlots)))
	c.note("recover-load-done")

	// Decode every tracked image. Duplicate entries for the same block are
	// a legal artifact of crashing an earlier recovery between re-tracking
	// and slot cleanup; the one with the largest counters is the fresher
	// (counters only ever grow).
	recovered := make(map[uint64]metacache.Block)
	slotsOf := make(map[uint64][]uint64)
	for _, se := range entries {
		loc := c.layout.Locate(se.Addr)
		if loc.Kind != itree.RegionMetadata {
			rep.FailedBlocks = append(rep.FailedBlocks,
				FailedBlock{Addr: se.Addr, Reason: "content entry outside the metadata region"})
			c.stats.RecoveryLost++
			c.tel.recoveryLost.Inc()
			continue
		}
		slotsOf[se.Addr] = append(slotsOf[se.Addr], se.Slot)
		var blk metacache.Block
		decodeInto(&blk, loc.Level, loc.Index, &se.Line)
		if prev, dup := recovered[se.Addr]; !dup || counterTotal(&blk) > counterTotal(&prev) {
			recovered[se.Addr] = blk
		}
	}
	rep.RecoveredBlocks = len(recovered)
	c.stats.RecoveredOK += uint64(len(recovered))
	c.tel.recoveredOK.Add(uint64(len(recovered)))

	c.reseedRecovered(recovered, slotsOf)

	if err := c.wipeSlots(tbl.Reset, tbl.ValidSlots(), lostSlots); err != nil {
		return rep, err
	}
	c.note("recover-done")
	return rep, nil
}
