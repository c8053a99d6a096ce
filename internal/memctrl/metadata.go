package memctrl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"soteria/internal/core"
	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/nvm"
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

// decodeInto decodes a verified line of node (level, index) into b, which
// must be zero (a freshly claimed cache way, or a new variable).
func decodeInto(b *metacache.Block, level int, index uint64, line *nvm.Line) {
	b.Level, b.Index = level, index
	if level == 1 {
		b.Kind = metacache.KindCounter
		b.Counter = ctrenc.DeserializeCounterBlock(line)
		return
	}
	b.Kind = metacache.KindNode
	b.Node = itree.DeserializeNode(line)
}

// serializeBlock renders a metadata block's current content (MAC field
// included as stored).
func serializeBlock(b *metacache.Block) nvm.Line {
	switch b.Kind {
	case metacache.KindCounter:
		return b.Counter.Serialize()
	case metacache.KindNode:
		return b.Node.Serialize()
	default:
		return b.Raw
	}
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
	return pb.Node.Counters[slot], nil
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
	if err := c.fetchBlock(level, index); err != nil {
		return nil, -1, err
	}
	b, slot := c.mcache.LookupSlot(home)
	return b, slot, nil
}

// pendingFill is one fetched line waiting for its cache way.
type pendingFill struct {
	home uint64
	line nvm.Line
}

// fetchBlock reads node (level, index) from NVM, verifies it through the
// Soteria fault handler (which consults clones on failure), and inserts it
// clean into the metadata cache.
func (c *Controller) fetchBlock(level int, index uint64) error {
	home := c.layout.NodeAddr(level, index)
	pctr, err := c.parentCounterOf(level, index)
	if err != nil {
		return err
	}
	line, out, clones := c.fh.ReadVerified(level, index, func(l *nvm.Line) bool {
		return c.verifyLine(level, index, pctr, l)
	})
	// Timing: the home read always happens; each clone consulted adds a
	// read. (Purify writes are off the critical path.)
	for n := 0; n <= clones; n++ {
		c.chargeReadLatency(home)
	}
	switch out {
	case core.OutcomeUnverifiable:
		return fmt.Errorf("%w: L%d[%d]", ErrUnverifiable, level, index)
	case core.OutcomeTamper:
		return fmt.Errorf("%w: L%d[%d]", ErrTamper, level, index)
	}
	// The parent fetch above can cascade into write-backs that
	// themselves pull this very block into the cache (and advance its
	// counters). Inserting the NVM copy now would roll those updates
	// back; the resident copy is authoritative.
	if _, ok := c.mcache.Peek(home); ok {
		return nil
	}
	if level >= 0 && level < len(c.tel.fillsByLevel) {
		c.tel.fillsByLevel[level].Inc()
	}
	// The line waits in a pending-fill register while its way is claimed:
	// the claim's cascade may write this block back (see c.fills).
	c.fills = append(c.fills, pendingFill{home, line})
	b, err := c.claimWay(home)
	fill := c.fills[len(c.fills)-1]
	c.fills = c.fills[:len(c.fills)-1]
	if b != nil {
		decodeInto(b, level, index, &fill.line)
	}
	return err
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
// block now occupies for the caller to fill in place. It returns a nil way
// when the block became resident during that cascade: the resident copy is
// then authoritative and must not be overwritten. It fails with
// ErrSetCapacity when every way of the set is pinned; a dirty victim whose
// write-back was refused that way stays dirty and tracked.
func (c *Controller) claimWay(home uint64) (*metacache.Block, error) {
	// Crash safety: a dirty victim's shadow entry must stay valid until
	// the victim's write-back clone group is durable, and its slot is only
	// then handed to the new occupant. Evicting first and writing back
	// afterwards would force an early entry invalidation, leaving the
	// victim's in-cache updates untracked across a crash in the window. So
	// dirty victims are force-written *while still resident* (which clears
	// their entry after the group is pushed), and only then replaced. A
	// write-back only moves dirtiness up the tree, so the loop ends.
	for {
		v, has := c.mcache.Victim(home)
		if !has || !v.Dirty {
			break
		}
		c.mcache.NoteEvictionWriteback(v.Level)
		if err := c.forceWriteback(v.Addr); errors.Is(err, ErrSetCapacity) {
			return nil, err
		} else if err != nil {
			// Unverifiable parent chain: the update is lost (the fault
			// handler accounted the coverage loss). Drop the tracking
			// entry so the insertion can proceed.
			c.stats.RecoveryLost++
			c.tel.recoveryLost.Inc()
			c.mcache.CleanLine(v.Addr)
			c.untrack(c.mcache.SlotOf(v.Addr))
		}
	}
	// The pre-clean cascade can fetch (and advance the counters of) this
	// very block while writing back a victim that happens to be one of its
	// children. The resident copy is then authoritative; overwriting it
	// with the stale decoded line would roll those bumps back and break
	// the children's MACs.
	if _, ok := c.mcache.Peek(home); ok {
		return nil, nil
	}
	// Victim and Claim select the same way, and the loop above left it
	// clean, so the claim drops nothing that is not already in memory.
	b, ev, _ := c.mcache.Claim(home, false)
	if b == nil {
		return nil, fmt.Errorf("%w: %#x", ErrSetCapacity, home)
	}
	if ev.Dirty {
		panic(fmt.Sprintf("memctrl: claiming %#x evicted dirty %#x", home, ev.Addr))
	}
	return b, nil
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
		pb.Node.Increment(slot)
		pctr = pb.Node.Counters[slot]
		// Per-slot bump accounting bounds how far the parent's in-cache
		// counters can drift from NVM — Triad's relaxed levels use it the
		// way Osiris uses leaf UpdatesPerSlot.
		pb.UpdatesPerSlot[slot]++
		c.mcache.MarkDirty(pway)
		c.strat.onDirty(c, c.layout.NodeAddr(level+1, pindex), pway)
	}

	// Both codecs are lossless and keep the MAC out of bytes 0..55, so the
	// line is serialized once and its new MAC patched into bytes 56..63.
	line := serializeBlock(blk)
	switch blk.Kind {
	case metacache.KindCounter:
		blk.Counter.MAC = ctrenc.CounterLineMAC(c.eng, index, pctr, &line)
		binary.LittleEndian.PutUint64(line[56:], blk.Counter.MAC)
	case metacache.KindNode:
		blk.Node.MAC = itree.NodeLineMAC(c.eng, level, index, pctr, &line)
		binary.LittleEndian.PutUint64(line[56:], blk.Node.MAC)
	}
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
	if len(c.tel.fillsByLevel) > 0 {
		c.tel.fillsByLevel[0].Inc() // MAC lines fill as level 0
	}
	b, err := c.claimWay(lineAddr)
	if err != nil {
		return nil, -1, err
	}
	if b != nil {
		b.Kind, b.Index, b.Raw = metacache.KindMAC, lineIdx, r.Data
	}
	b, slot := c.mcache.LookupSlot(lineAddr)
	return b, slot, nil
}

// storedMAC reads dataBlock's MAC out of its MAC line mb.
func (c *Controller) storedMAC(mb *metacache.Block, dataBlock uint64) uint64 {
	_, off := c.layout.DataMACAddr(dataBlock)
	return binary.LittleEndian.Uint64(mb.Raw[off : off+8])
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
	binary.LittleEndian.PutUint64(mb.Raw[off:off+8], mac)
	c.pushWrite(lineAddr, &mb.Raw, WCDataMAC)
}
