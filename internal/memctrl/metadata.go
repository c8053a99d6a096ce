package memctrl

import (
	"encoding/binary"
	"fmt"

	"soteria/internal/core"
	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/nvm"
	"soteria/internal/shadow"
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
	pb, err := c.getBlock(level+1, pindex)
	if err != nil {
		return 0, err
	}
	return pb.Node.Counters[slot], nil
}

// getBlock returns a trusted metadata block, fetching and verifying it (and
// its ancestor chain) as needed. If the block is currently being written
// back, its in-flight copy is returned — that copy is what will reach NVM,
// so counter bumps must land there. The returned pointer is valid only
// until the next cache-mutating call.
func (c *Controller) getBlock(level int, index uint64) (*metacache.Block, error) {
	home := c.layout.NodeAddr(level, index)
	if b := c.inflightCopy(home); b != nil {
		return b, nil
	}
	for tries := 0; tries < 64; tries++ {
		if b, ok := c.mcache.Lookup(home); ok {
			return b, nil
		}
		if err := c.fetchBlock(level, index); err != nil {
			return nil, err
		}
	}
	panic(fmt.Sprintf("memctrl: livelock fetching metadata L%d[%d]", level, index))
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
	if b := c.claimWay(home); b != nil {
		decodeInto(b, level, index, &line)
	}
	return nil
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
// block now occupies for the caller to fill in place. It returns nil when
// the block became resident during that cascade: the resident copy is then
// authoritative and must not be overwritten.
func (c *Controller) claimWay(home uint64) *metacache.Block {
	// Crash safety: a dirty victim's shadow entry must stay valid until
	// the victim's write-back clone group is durable, and its slot is only
	// then handed to the new occupant. Evicting first and writing back
	// afterwards would force an early entry invalidation, leaving the
	// victim's in-cache updates untracked across a crash in the window. So
	// dirty victims are force-written *while still resident* (which clears
	// their entry after the group is pushed), and only then replaced.
	for guard := 0; ; guard++ {
		if guard > maxCascade {
			panic("memctrl: victim pre-clean failed to converge")
		}
		v, has := c.mcache.Victim(home)
		if !has || !v.Dirty {
			break
		}
		if v.Kind == metacache.KindMAC {
			// MAC lines are write-through and should never be dirty;
			// handle defensively.
			mb, _ := c.mcache.Peek(v.Addr)
			line := mb.Raw
			c.pushWrite(c.macLineAddr(mb.Index), &line, WCDataMAC)
			c.mcache.CleanLine(v.Addr)
			continue
		}
		if c.forcing.has(v.Addr) || c.pinned.has(v.Addr) {
			// The victim's write-back is already on the stack (this
			// insertion is part of its parent-ensure cascade), or the
			// block is pinned by the data write in progress — persisting
			// its bumped counter before the sealed data commit would
			// strand the data on a crash in between. Refresh its LRU
			// state so selection moves to another way instead.
			c.mcache.Touch(v.Addr)
			continue
		}
		c.mcache.NoteEvictionWriteback(v.Level)
		if err := c.forceWriteback(v.Addr); err != nil {
			// Unverifiable parent chain: the update is lost (the fault
			// handler accounted the coverage loss). Drop the tracking
			// entry so the insertion can proceed.
			c.stats.RecoveryLost++
			c.tel.recoveryLost.Inc()
			c.mcache.CleanLine(v.Addr)
			c.strat.onDrop(c, v.Addr)
		}
	}
	// The pre-clean cascade can fetch (and advance the counters of) this
	// very block while writing back a victim that happens to be one of its
	// children. The resident copy is then authoritative; overwriting it
	// with the stale decoded line would roll those bumps back and break
	// the children's MACs.
	if _, ok := c.mcache.Peek(home); ok {
		return nil
	}
	// Victim and Claim select the same way, and the loop above left it
	// clean, so the claim drops nothing that is not already in memory.
	b, ev, _ := c.mcache.Claim(home, false)
	if ev.Dirty {
		panic(fmt.Sprintf("memctrl: claiming %#x evicted dirty %#x", home, ev.Addr))
	}
	return b
}

// writebackBlock persists a metadata block: it bumps the parent counter
// (the lazy ToC update), recomputes the block's MAC under the new parent
// counter, and pushes the home copy plus every configured clone through the
// WPQ as one atomic group.
//
// blk must be a stable pointer (a resident way protected by a pre-ensured
// parent — see forceWriteback).
// The block is registered as in-flight for the duration, so any nested
// write-back that needs to bump one of blk's own counters mutates *this*
// copy, which is serialized only afterwards.
func (c *Controller) writebackBlock(blk *metacache.Block) error {
	c.cascade++
	defer func() { c.cascade-- }()
	if c.cascade > maxCascade {
		panic("memctrl: eviction cascade exceeded bound")
	}
	level, index := blk.Level, blk.Index
	home := c.layout.NodeAddr(level, index)
	if c.inflightCopy(home) != nil {
		panic(fmt.Sprintf("memctrl: L%d[%d] written back re-entrantly", level, index))
	}
	c.inflight = append(c.inflight, inflightEntry{home, blk})
	defer func() { c.inflight = c.inflight[:len(c.inflight)-1] }()

	_, pindex, slot, stored := c.layout.Parent(level, index)
	var pctr uint64
	if !stored {
		c.root.Increment(slot)
		pctr = c.root.Counters[slot]
	} else {
		pHome := c.layout.NodeAddr(level+1, pindex)
		pb, err := c.getBlock(level+1, pindex)
		if err != nil {
			return err
		}
		pb.Node.Increment(slot)
		pctr = pb.Node.Counters[slot]
		// Per-slot bump accounting bounds how far the parent's in-cache
		// counters can drift from NVM — Triad's relaxed levels use it the
		// way Osiris uses leaf UpdatesPerSlot.
		pb.UpdatesPerSlot[slot]++
		c.mcache.MarkDirty(pHome)
		c.strat.onDirty(c, pHome)
	}

	switch blk.Kind {
	case metacache.KindCounter:
		blk.Counter.MAC = blk.Counter.ContentMAC(c.eng, index, pctr)
	case metacache.KindNode:
		blk.Node.MAC = blk.Node.ContentMAC(c.eng, level, index, pctr)
	}
	line := serializeBlock(blk)

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

// shadowUpdate (re)writes the shadow entry describing the dirty block at
// home — called on every in-cache modification, the Anubis "shadow log"
// write.
func (c *Controller) shadowUpdate(home uint64) {
	if c.shadow == nil || c.eager {
		// Eager mode keeps the root fresh on every write; there is no
		// stale state for a shadow entry to recover, so the Anubis log
		// is not maintained.
		return
	}
	blk, ok := c.mcache.Peek(home)
	if !ok || blk.Kind == metacache.KindMAC {
		return
	}
	slot := c.mcache.SlotOf(home)
	line := serializeBlock(blk)
	e := shadow.Entry{
		Valid: true,
		Addr:  home,
		MAC:   shadow.ContentMAC(c.eng, home, &line),
	}
	if blk.Kind == metacache.KindCounter {
		e.LSBs[0] = uint16(blk.Counter.Major & 0xFFFF)
	} else {
		for i, ctr := range blk.Node.Counters {
			e.LSBs[i] = uint16(ctr & 0xFFFF)
		}
	}
	// One shadow-table operation — the entry line plus its eager BMT
	// update and the on-chip root — commits atomically from the ADR
	// domain; a torn entry/tree pair would fail BMT verification and lose
	// the tracked block.
	c.seal("shadow-op")
	err := c.shadow.Write(slot, e)
	c.unseal("shadow-op")
	if err != nil {
		panic(fmt.Sprintf("memctrl: shadow write: %v", err))
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
// block stays cached, clean.
func (c *Controller) forceWriteback(home uint64) error {
	blk, ok := c.mcache.Peek(home)
	if !ok {
		return nil
	}
	if c.forcing.has(home) {
		// Already being written back higher on the stack; that call will
		// complete the job.
		return nil
	}
	c.forcing.push(home)
	defer c.forcing.pop()
	// Pre-ensure the parent chain: the fetch cascade this can trigger
	// must run *before* we commit to writing the resident copy, because
	// the cascade may evict (and thereby already write back) this very
	// block, or modify its counters via nested write-backs.
	level, index := blk.Level, blk.Index
	if _, pindex, _, stored := c.layout.Parent(level, index); stored {
		if _, err := c.getBlock(level+1, pindex); err != nil {
			return err
		}
	}
	blk, ok = c.mcache.Peek(home)
	if !ok {
		// The pre-ensure cascade evicted it — which wrote it back.
		c.stats.ForcedWB++
		c.tel.forcedWB.Inc()
		return nil
	}
	// From here on no cache mutation can happen (the parent is resident,
	// so writebackBlock's lookup hits), making the resident pointer
	// stable for the duration.
	if err := c.writebackBlock(blk); err != nil {
		return err
	}
	c.mcache.CleanLine(home)
	// The tracking entry is dropped only now, after the block's clone
	// group has been accepted into the persistence domain: a crash between
	// the two steps merely leaves a benign entry describing content that
	// already matches memory.
	c.strat.onClean(c, home)
	c.stats.ForcedWB++
	c.tel.forcedWB.Inc()
	return nil
}

// --- data-MAC lines ---------------------------------------------------------

func (c *Controller) macLineAddr(lineIdx uint64) uint64 {
	return c.layout.MACBase + lineIdx*nvm.LineSize
}

// getMACLine returns the cached packed-MAC line covering dataBlock,
// fetching it from NVM on a miss. MAC lines sit outside the tree (the data
// MAC itself is the authenticator), so no verification chain is needed.
func (c *Controller) getMACLine(dataBlock uint64) (*metacache.Block, error) {
	lineAddr, _ := c.layout.DataMACAddr(dataBlock)
	lineIdx := (lineAddr - c.layout.MACBase) / nvm.LineSize
	for tries := 0; tries < 64; tries++ {
		if b, ok := c.mcache.Lookup(lineAddr); ok {
			return b, nil
		}
		r := c.readNVM(lineAddr)
		if r.Uncorrectable {
			return nil, fmt.Errorf("%w: MAC line %d", ErrDataError, lineIdx)
		}
		if _, ok := c.mcache.Peek(lineAddr); ok {
			continue // raced with a cascade; resident copy wins
		}
		if len(c.tel.fillsByLevel) > 0 {
			c.tel.fillsByLevel[0].Inc() // MAC lines fill as level 0
		}
		if b := c.claimWay(lineAddr); b != nil {
			b.Kind, b.Index, b.Raw = metacache.KindMAC, lineIdx, r.Data
		}
	}
	panic("memctrl: livelock fetching MAC line")
}

// dataMAC reads the stored MAC of a data block.
func (c *Controller) dataMAC(dataBlock uint64) (uint64, error) {
	b, err := c.getMACLine(dataBlock)
	if err != nil {
		return 0, err
	}
	_, off := c.layout.DataMACAddr(dataBlock)
	return binary.LittleEndian.Uint64(b.Raw[off : off+8]), nil
}

// setDataMAC updates a data block's MAC: the cached line is modified and
// written through immediately (MAC persists together with the ciphertext,
// which is what makes Osiris recovery possible).
func (c *Controller) setDataMAC(dataBlock uint64, mac uint64) error {
	b, err := c.getMACLine(dataBlock)
	if err != nil {
		return err
	}
	_, off := c.layout.DataMACAddr(dataBlock)
	binary.LittleEndian.PutUint64(b.Raw[off:off+8], mac)
	lineAddr, _ := c.layout.DataMACAddr(dataBlock)
	line := b.Raw
	c.pushWrite(lineAddr, &line, WCDataMAC)
	return nil
}

// addrSet is a set of home addresses pushed and popped in stack order by
// the write-back and data-write frames that own them. It holds at most the
// cascade depth, so membership is a scan.
type addrSet []uint64

func (s addrSet) has(addr uint64) bool {
	for _, a := range s {
		if a == addr {
			return true
		}
	}
	return false
}

func (s *addrSet) push(addr uint64) { *s = append(*s, addr) }

func (s *addrSet) pop() { *s = (*s)[:len(*s)-1] }

// inflightEntry is one block on the write-back stack.
type inflightEntry struct {
	home uint64
	blk  *metacache.Block
}

// inflightCopy returns the in-flight copy of the block at home, or nil.
func (c *Controller) inflightCopy(home uint64) *metacache.Block {
	for i := range c.inflight {
		if c.inflight[i].home == home {
			return c.inflight[i].blk
		}
	}
	return nil
}

// resetTransient empties the per-operation stacks (crash).
func (c *Controller) resetTransient() {
	c.inflight = c.inflight[:0]
	c.forcing = c.forcing[:0]
	c.pinned = c.pinned[:0]
}
