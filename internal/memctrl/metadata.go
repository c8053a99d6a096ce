package memctrl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"soteria/internal/core"
	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/nvm"
	"soteria/internal/telemetry"
	"soteria/internal/wpq"
)

// maxCascade bounds the eviction/writeback recursion. A correctly sized
// metadata cache never approaches this; hitting it indicates a livelock
// bug, so we fail loudly.
const maxCascade = 512

// isZeroLine reports whether a line is all zeroes (the pristine,
// never-written state of a metadata node).
func isZeroLine(l *nvm.Line) bool {
	for _, b := range l {
		if b != 0 {
			return false
		}
	}
	return true
}

// verifyLine is the MAC check of a stored image of metadata node (level,
// index) under the protecting parent counter: the MAC over the line's first
// 56 bytes must equal the one stored in its last 8. Both codecs are
// lossless, so those 56 bytes are exactly what ContentMAC serializes from
// the decoded block — the check needs no decode. The pristine all-zero
// state is valid exactly when the parent counter is still zero (the node
// was never written back, so the only legitimate content is the initial
// one — and replaying zeroes later fails because the parent counter has
// moved).
func (c *Controller) verifyLine(level int, index, pctr uint64, l *nvm.Line) bool {
	if isZeroLine(l) {
		return pctr == 0
	}
	var mac uint64
	if level == 1 {
		mac = ctrenc.CounterLineMAC(c.eng, index, pctr, l)
	} else {
		mac = itree.NodeLineMAC(c.eng, level, index, pctr, l)
	}
	return mac == binary.LittleEndian.Uint64(l[56:])
}

// decodeInto fills b, a freshly claimed way or a new variable, with the
// verified line of node (level, index): the way holds the stored line
// itself, so the fill is a copy.
func decodeInto(b *metacache.Block, level int, index uint64, line *nvm.Line) {
	b.Kind, b.Level, b.Index = metacache.KindNode, level, index
	if level == 1 {
		b.Kind = metacache.KindCounter
	}
	b.Line = *line // alone, so the copy needs no temporary
}

// parentCounterOf returns the counter protecting node (level, index),
// ensuring the parent chain is resident and verified.
func (c *Controller) parentCounterOf(level int, index uint64) (uint64, error) {
	_, pindex, slot, stored := c.layout.Parent(level, index)
	if !stored {
		return c.root.Counters[slot], nil
	}
	pb, _, err := c.getBlock(level+1, pindex)
	if err != nil {
		return 0, err
	}
	return pb.Node().Counter(slot), nil
}

// getBlock returns a trusted metadata block and its cache slot, fetching
// and verifying it (and its ancestor chain) as needed. The pointer and the
// slot are valid only until the next cache-mutating call, unless the
// caller pins the block.
func (c *Controller) getBlock(level int, index uint64) (*metacache.Block, int, error) {
	home := c.layout.NodeAddr(level, index)
	if b, slot := c.mcache.LookupSlot(home); slot >= 0 {
		return b, slot, nil
	}
	slot, err := c.fetchBlock(level, index)
	if err != nil {
		return nil, -1, err
	}
	c.mcache.Hit(slot)
	return c.mcache.At(slot), slot, nil
}

// fillRegisters is how many pending-fill registers a controller starts with:
// the set-conflict streams nest at most seven fetches. A deeper nest grows
// c.fills, which is safe because a fetch finds its register by index.
const fillRegisters = 8

// pendingFill is one fetched line waiting for its cache way.
type pendingFill struct {
	home uint64
	line nvm.Line
}

// fetchBlock reads node (level, index) from NVM, verifies it through the
// Soteria fault handler (which consults clones on failure), inserts it
// clean into the metadata cache and returns its slot.
func (c *Controller) fetchBlock(level int, index uint64) (int, error) {
	home := c.layout.NodeAddr(level, index)
	pctr, err := c.parentCounterOf(level, index)
	if err != nil {
		return -1, err
	}
	// The line is read straight into a pending-fill register and waits
	// there while its way is claimed: the claim's cascade may write this
	// block back (see c.fills), or nest fetches of its own, so the register
	// is found again by its index afterwards.
	n := len(c.fills)
	c.fills = slices.Grow(c.fills, 1)[:n+1]
	c.fills[n].home = home
	out, clones := c.fh.ReadVerified(level, index, &c.fills[n].line, func(l *nvm.Line) bool {
		return c.verifyLine(level, index, pctr, l)
	})
	// Timing: the home read always happens; each clone consulted adds a
	// read. (Purify writes are off the critical path.)
	for i := 0; i <= clones; i++ {
		c.chargeReadLatency(home)
	}
	switch out {
	case core.OutcomeUnverifiable:
		c.fills = c.fills[:n]
		return -1, fmt.Errorf("%w: L%d[%d]", ErrUnverifiable, level, index)
	case core.OutcomeTamper:
		c.fills = c.fills[:n]
		return -1, fmt.Errorf("%w: L%d[%d]", ErrTamper, level, index)
	}
	b, slot, err := c.claimWay(home, c.tel.fill(level))
	if b != nil {
		decodeInto(b, level, index, &c.fills[n].line)
	}
	c.fills = c.fills[:n]
	return slot, err
}

// chargeReadLatency advances time for one NVM line read without performing
// the functional read.
func (c *Controller) chargeReadLatency(addr uint64) {
	if c.q.Pending(c.now, addr) {
		c.stats.WPQForwards++
		c.tel.wpqForwards.Inc()
		c.now += c.fwdLat
		return
	}
	bank := c.banks.BankFor(addr / nvm.LineSize)
	c.now = c.banks.Schedule(bank, c.now, c.readLat)
	c.stats.NVMReads++
	c.tel.nvmReads.Inc()
}

// claimWay makes room for the block at home in the metadata cache, fully
// handling the eviction this causes (write-back with lazy parent update,
// clone writes, shadow maintenance), and returns the clean, zeroed way the
// block now occupies for the caller to fill in place, with its slot. It
// returns a nil way when the block is already resident, possibly pulled in
// by that cascade: the resident copy is then authoritative and must not be
// overwritten, and the slot is its own. fill counts the fill (nil counts
// nothing) when the block is absent at the first probe. It fails with
// ErrSetCapacity when every way of the set is pinned; a dirty victim whose
// write-back was refused that way stays dirty and tracked.
func (c *Controller) claimWay(home uint64, fill *telemetry.Counter) (*metacache.Block, int, error) {
	// Crash safety: a dirty victim's shadow entry must stay valid until
	// the victim's write-back clone group is durable, and its slot is only
	// then handed to the new occupant. Evicting first and writing back
	// afterwards would force an early entry invalidation, leaving the
	// victim's in-cache updates untracked across a crash in the window. So
	// dirty victims are force-written *while still resident* (which clears
	// their entry after the group is pushed), and only then replaced. A
	// write-back only moves dirtiness up the tree, so the loop ends. Each
	// turn probes the set once; only a write-back's cascade sends it
	// round again.
	for turn := 0; ; turn++ {
		slot, resident, v, evict := c.mcache.Place(home)
		if resident {
			// A parent fetch or the pre-clean cascade can pull this very
			// block into the cache (and advance its counters) while
			// writing back a victim that happens to be one of its
			// children. Overwriting it with the stale fetched line would
			// roll those bumps back and break the children's MACs.
			return nil, slot, nil
		}
		if turn == 0 {
			fill.Inc()
		}
		if slot < 0 {
			return nil, -1, fmt.Errorf("%w: %#x", ErrSetCapacity, home)
		}
		if !evict || !v.Dirty {
			// Nothing changed since Place, so the claim takes that way
			// and drops nothing that is not already in memory.
			b, _, _ := c.mcache.ClaimAt(slot, home, false)
			return b, slot, nil
		}
		c.mcache.NoteEvictionWriteback(v.Level)
		if err := c.forceWriteback(v.Addr); errors.Is(err, ErrSetCapacity) {
			return nil, -1, err
		} else if err != nil {
			// Unverifiable parent chain: the update is lost (the fault
			// handler accounted the coverage loss). Drop the tracking
			// entry so the insertion can proceed; the victim stayed
			// pinned at its slot through the write-back.
			c.stats.RecoveryLost++
			c.tel.recoveryLost.Inc()
			c.mcache.CleanLine(v.Addr)
			c.untrack(slot)
		}
	}
}

// writebackBlock persists a metadata block: it bumps the parent counter
// (the lazy ToC update), recomputes the block's MAC under the new parent
// counter, and pushes the home copy plus every configured clone through the
// WPQ as one atomic group.
//
// blk must be a pinned resident way whose parent is resident (see
// forceWriteback), so any nested write-back that bumps one of blk's own
// counters mutates *this* copy, which is serialized only afterwards.
func (c *Controller) writebackBlock(blk *metacache.Block) error {
	c.cascade++
	defer func() { c.cascade-- }()
	if c.cascade > maxCascade {
		panic("memctrl: eviction cascade exceeded bound")
	}
	level, index := blk.Level, blk.Index

	_, pindex, slot, stored := c.layout.Parent(level, index)
	var pctr uint64
	if !stored {
		c.root.Increment(slot)
		pctr = c.root.Counters[slot]
	} else {
		pb, pway, err := c.getBlock(level+1, pindex)
		if err != nil {
			return err
		}
		pb.Node().Increment(slot)
		pctr = pb.Node().Counter(slot)
		// Per-slot bump accounting bounds how far the parent's in-cache
		// counters can drift from NVM — Triad's relaxed levels use it the
		// way Osiris uses leaf UpdatesPerSlot.
		pb.UpdatesPerSlot[slot]++
		c.mcache.MarkDirty(pway)
		c.strat.onDirty(c, c.layout.NodeAddr(level+1, pindex), pway)
	}

	// Both codecs keep the MAC out of bytes 0..55, so the way's line is
	// MACed where it is and the new MAC patched into bytes 56..63.
	switch blk.Kind {
	case metacache.KindCounter:
		binary.LittleEndian.PutUint64(blk.Line[56:], ctrenc.CounterLineMAC(c.eng, index, pctr, &blk.Line))
	case metacache.KindNode:
		binary.LittleEndian.PutUint64(blk.Line[56:], itree.NodeLineMAC(c.eng, level, index, pctr, &blk.Line))
	}
	line := blk.Line
	// A fetch of this block waiting for its way read the older image.
	home := c.layout.NodeAddr(level, index)
	for i := range c.fills {
		if c.fills[i].home == home {
			c.fills[i].line = line
		}
	}

	// The addr/write scratch is consumed before any path that could
	// re-enter writebackBlock (the parent cascade above is done), so one
	// controller-owned buffer suffices even under nested write-backs.
	c.wbAddrs = c.layout.AppendCopyAddrs(c.wbAddrs[:0], level, index)
	addrs := c.wbAddrs
	if cap(c.wbWrites) < len(addrs) {
		c.wbWrites = make([]wpq.Write, len(addrs))
	}
	writes := c.wbWrites[:len(addrs)]
	for i, a := range addrs {
		writes[i] = wpq.Write{Addr: a, Data: line}
	}
	c.now = c.q.PushAtomic(c.now, writes)
	c.stats.NVMWrites[WCMetadata]++
	c.tel.nvmWrites[WCMetadata].Inc()
	c.stats.NVMWrites[WCClone] += uint64(len(addrs) - 1)
	c.tel.nvmWrites[WCClone].Add(uint64(len(addrs) - 1))
	// The persisted copy is in sync with the cache again: reset the
	// per-slot drift accounting (Osiris bound for leaves, Triad relaxed
	// bound for nodes).
	for i := range blk.UpdatesPerSlot {
		blk.UpdatesPerSlot[i] = 0
	}
	return nil
}

// untrack retires the shadow entry of the block at cache slot way (-1:
// not resident), if the strategy keeps a table: after the block's
// write-back group was pushed (the entry describes content memory now
// holds), or when its update was lost, so recovery does not look for
// content that never landed.
func (c *Controller) untrack(way int) {
	if way >= 0 && c.shadow != nil {
		c.invalidateSlot(way)
	}
}

// invalidateSlot clears one shadow slot as a crash-atomic shadow-table
// operation.
func (c *Controller) invalidateSlot(slot int) {
	c.seal("shadow-op")
	err := c.shadow.Invalidate(slot)
	c.unseal("shadow-op")
	if err != nil {
		panic(fmt.Sprintf("memctrl: shadow invalidate: %v", err))
	}
}

// forceWriteback flushes a resident dirty block to memory without evicting
// it (the Osiris in-cache update bound and FlushAll both use this). The
// block stays cached, clean. It is pinned for the duration: the parent
// fetch below can cascade into other write-backs, and the pin keeps the
// block resident, so its pointer stays valid and nested bumps of its own
// counters land in the copy serialized here.
func (c *Controller) forceWriteback(home uint64) error {
	way := c.mcache.SlotOf(home)
	if way < 0 {
		return nil
	}
	blk := c.mcache.At(way)
	c.mcache.Pin(way)
	defer c.mcache.Unpin(way)
	// Ensure the parent first: once it is resident, writebackBlock's
	// parent lookup hits and no cache mutation can happen.
	if _, pindex, _, stored := c.layout.Parent(blk.Level, blk.Index); stored {
		if _, _, err := c.getBlock(blk.Level+1, pindex); err != nil {
			return err
		}
	}
	if err := c.writebackBlock(blk); err != nil {
		return err
	}
	c.mcache.CleanLine(home)
	// The tracking entry is dropped only now, after the block's clone
	// group has been accepted into the persistence domain: a crash between
	// the two steps merely leaves a benign entry describing content that
	// already matches memory.
	c.untrack(way)
	c.stats.ForcedWB++
	c.tel.forcedWB.Inc()
	return nil
}

// --- data-MAC lines ---------------------------------------------------------

// getMACLine returns the cached packed-MAC line covering dataBlock and its
// cache slot, fetching it from NVM on a miss. MAC lines sit outside the
// tree (the data MAC itself is the authenticator), so no verification
// chain is needed.
func (c *Controller) getMACLine(dataBlock uint64) (*metacache.Block, int, error) {
	lineAddr, _ := c.layout.DataMACAddr(dataBlock)
	if b, slot := c.mcache.LookupSlot(lineAddr); slot >= 0 {
		return b, slot, nil
	}
	lineIdx := (lineAddr - c.layout.MACBase) / nvm.LineSize
	r := c.readNVM(lineAddr)
	if r.Uncorrectable {
		return nil, -1, fmt.Errorf("%w: MAC line %d", ErrDataError, lineIdx)
	}
	b, slot, err := c.claimWay(lineAddr, c.tel.fill(0)) // MAC lines fill as level 0
	if err != nil {
		return nil, -1, err
	}
	if b != nil {
		b.Kind, b.Index, b.Line = metacache.KindMAC, lineIdx, r.Data
	}
	c.mcache.Hit(slot)
	return c.mcache.At(slot), slot, nil
}

// storedMAC reads dataBlock's MAC out of its MAC line mb.
func (c *Controller) storedMAC(mb *metacache.Block, dataBlock uint64) uint64 {
	_, off := c.layout.DataMACAddr(dataBlock)
	return binary.LittleEndian.Uint64(mb.Line[off : off+8])
}

// dataMAC reads the stored MAC of a data block.
func (c *Controller) dataMAC(dataBlock uint64) (uint64, error) {
	mb, _, err := c.getMACLine(dataBlock)
	if err != nil {
		return 0, err
	}
	return c.storedMAC(mb, dataBlock), nil
}

// setDataMAC updates a data block's MAC in its MAC line mb, which the
// caller resolved with getMACLine and which is still resident at macSlot:
// the store is one more access to the line, and the line is written
// through immediately (MAC persists together with the ciphertext, which
// is what makes Osiris recovery possible).
func (c *Controller) setDataMAC(mb *metacache.Block, macSlot int, dataBlock uint64, mac uint64) {
	c.mcache.Hit(macSlot)
	lineAddr, off := c.layout.DataMACAddr(dataBlock)
	binary.LittleEndian.PutUint64(mb.Line[off:off+8], mac)
	c.pushWrite(lineAddr, &mb.Line, WCDataMAC)
}
