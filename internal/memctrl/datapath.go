package memctrl

import (
	"errors"
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/metacache"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// ReadBlock services one 64-byte read at a data-region address (as issued
// by an LLC miss). It returns the plaintext, the completion time, and any
// security or reliability error. Addresses must be line-aligned and inside
// the data region.
func (c *Controller) ReadBlock(now sim.Time, addr uint64) ([nvm.LineSize]byte, sim.Time, error) {
	if err := c.checkDataAddr(addr); err != nil {
		return nvm.Line{}, now, err
	}
	c.now = now
	c.stats.MemRequests++
	c.stats.DataReads++
	sp := c.tel.readSpan.Start()
	defer sp.End()

	if c.mode == ModeNonSecure {
		r := c.readNVM(addr)
		if r.Uncorrectable {
			return r.Data, c.now, fmt.Errorf("%w: block %#x", ErrDataError, addr)
		}
		return r.Data, c.now, nil
	}

	blockIdx := addr / nvm.LineSize
	leafIdx := c.layout.CounterBlockOf(blockIdx)
	slot := c.layout.SlotOf(blockIdx)

	cb, _, err := c.getBlock(1, leafIdx)
	if err != nil {
		return nvm.Line{}, c.now, err
	}
	counter := cb.Counter().Counter(slot)

	// The data fetch and OTP generation overlap (Fig 1), so only the
	// memory latency is charged; the MAC fetch may add a second access
	// on a MAC-line miss.
	c.chargeReadLatency(addr)
	var r nvm.ReadResult
	if !c.dev.ReadIfMaterialized(addr, &r) {
		// Cold-read semantics: a never-written block reads as zeroes
		// with nothing to verify. (The counter can be non-zero here: a
		// page re-encryption bumps the major counter of untouched
		// siblings.) The hardware still performs the array read; only
		// the zero-content semantics are a simulation convenience.
		c.stats.ColdReads++
		return nvm.Line{}, c.now, c.strat.afterOp(c)
	}
	if r.Uncorrectable {
		return nvm.Line{}, c.now, fmt.Errorf("%w: block %#x", ErrDataError, addr)
	}
	want, err := c.dataMAC(blockIdx)
	if err != nil {
		return nvm.Line{}, c.now, err
	}
	ct := r.Data
	if got := c.eng.DataMAC(addr, counter, &ct); got != want {
		return nvm.Line{}, c.now, fmt.Errorf("%w: block %#x", ErrMACMismatch, addr)
	}
	pt := c.eng.Decrypt(addr, counter, &ct)
	// Deferred strategy maintenance (e.g. Triad's relaxed-level
	// write-backs queued by this read's eviction cascades) runs outside
	// any seal.
	return pt, c.now, c.strat.afterOp(c)
}

// WriteBlock services one 64-byte write at a data-region address (an LLC
// write-back). The block's minor counter advances, the ciphertext and its
// MAC persist through the WPQ, and the Anubis shadow entry for the counter
// block is refreshed — the paper's "maximum of three writes (cipher, data
// MAC and Shadow log) per write".
//
// WriteBlock holds the write's two releases — its span and the leaf pin —
// and writeSecure does the work: with this few returns both defers are
// open-coded, and they still run when a panic unwinds the write.
func (c *Controller) WriteBlock(now sim.Time, addr uint64, data *[nvm.LineSize]byte) (sim.Time, error) {
	if err := c.checkDataAddr(addr); err != nil {
		return now, err
	}
	c.now = now
	c.stats.MemRequests++
	c.stats.DataWrites++
	sp := c.tel.writeSpan.Start()
	defer sp.End()

	if c.mode == ModeNonSecure {
		c.pushWrite(addr, data, WCData)
		return c.now, nil
	}

	blockIdx := addr / nvm.LineSize
	leafIdx := c.layout.CounterBlockOf(blockIdx)
	cb, leaf, err := c.getBlock(1, leafIdx)
	if err == nil {
		// Pin the leaf for the duration of this write. Its counter is
		// about to advance in cache; if an eviction cascade (a
		// re-encryption fetch, say) wrote the bumped counter and its
		// shadow entry back before the sealed data commit lands, a crash
		// in between would recover the new counter with the old
		// ciphertext still in NVM — the block would decrypt under neither
		// value. Hardware pins the MSHR entry of an in-progress write the
		// same way. The pin also keeps cb and the leaf's slot valid.
		c.mcache.Pin(leaf)
		defer c.mcache.Unpin(leaf)
		err = c.writeSecure(addr, blockIdx, leafIdx, cb, leaf, data)
	}
	return c.now, err
}

// writeSecure is WriteBlock's secure path for the pinned leaf cb at cache
// slot leaf.
func (c *Controller) writeSecure(addr, blockIdx, leafIdx uint64, cb *metacache.Block, leaf int, data *[nvm.LineSize]byte) error {
	home := c.layout.NodeAddr(1, leafIdx)
	slot := c.layout.SlotOf(blockIdx)
	if cb.Counter().Minor(slot) == ctrenc.MinorMax {
		// Minor overflow: re-encrypt the whole covered page under an
		// incremented major counter before the bump.
		if err := c.reencryptPage(leafIdx, cb, leaf); err != nil {
			return err
		}
	}
	// Ensure the MAC line is resident before the counter moves (and after
	// a re-encryption, whose MAC-line fills can evict it): its miss path
	// can trigger eviction cascades, which must not run inside the sealed
	// commit below, and a failure here leaves the write without effect.
	// Nothing from here to the MAC store touches the cache, so the line
	// stays at macSlot.
	mb, macSlot, err := c.getMACLine(blockIdx)
	if err != nil {
		return err
	}
	if cb.Counter().Increment(slot) {
		panic("memctrl: minor overflow immediately after page re-encryption")
	}
	counter := cb.Counter().Counter(slot)
	cb.UpdatesPerSlot[slot]++
	needForce := c.strat.needsForce(c, cb, slot)
	c.mcache.MarkDirty(leaf)

	// The paper's "maximum of three writes (cipher, data MAC and Shadow
	// log) per write" commit atomically from the ADR domain: ciphertext,
	// MAC line and shadow entry are one sealed transaction. Tearing them
	// (e.g. a durable shadow entry whose data MAC never landed) would make
	// the block unrecoverable despite being tracked.
	ct := c.eng.Encrypt(addr, counter, data)
	c.seal("data-commit")
	c.pushWrite(addr, &ct, WCData)
	c.setDataMAC(mb, macSlot, blockIdx, c.eng.DataMAC(addr, counter, &ct))
	// Strategy commit: the Soteria shadow-log write, or Triad's
	// persisted-level write-back chain — atomic with the ciphertext and
	// MAC, so a crash can never strand an acknowledged write.
	err = c.strat.commitLeaf(c, home, leaf)
	c.unseal("data-commit")
	if err != nil {
		return err
	}
	if needForce {
		// Osiris bound: the counter may not drift further from its
		// NVM copy than recovery can search.
		if err := c.forceWriteback(home); err != nil {
			return err
		}
	}
	if c.eager {
		// Eager-update ablation (§2.5): flush the whole branch so the
		// on-chip root reflects this write immediately.
		if err := c.eagerPropagate(leafIdx); err != nil {
			return err
		}
	}
	return c.strat.afterOp(c)
}

// eagerPropagate force-writes the leaf's branch bottom-up; each write-back
// dirties the next level, which the following iteration flushes, ending at
// the on-chip root.
func (c *Controller) eagerPropagate(leafIdx uint64) error {
	level, index := 1, leafIdx
	for {
		if err := c.forceWriteback(c.layout.NodeAddr(level, index)); err != nil {
			return err
		}
		_, pindex, _, stored := c.layout.Parent(level, index)
		if !stored {
			return nil
		}
		level, index = level+1, pindex
	}
}

// reencryptPage handles a minor-counter overflow of the pinned leaf cb:
// the major counter bumps, every minor resets, and all covered blocks that
// exist in memory are re-encrypted and re-MACed under their new counters.
// The whole rewrite is modelled as one crash-atomic transaction — a page
// caught half re-encrypted under a bumped major would be unrecoverable, so
// real hardware must (and the paper's rarity argument lets it) commit the
// overflow handling atomically.
func (c *Controller) reencryptPage(leafIdx uint64, cb *metacache.Block, leaf int) error {
	c.seal("page-reencrypt")
	err := c.reencryptPageInner(leafIdx, cb, leaf)
	c.unseal("page-reencrypt")
	return err
}

func (c *Controller) reencryptPageInner(leafIdx uint64, cb *metacache.Block, leaf int) error {
	var oldCounters [ctrenc.CountersPerBlock]uint64
	for i := range oldCounters {
		oldCounters[i] = cb.Counter().Counter(i)
	}
	cb.Counter().BumpMajor()

	firstBlock := leafIdx * uint64(ctrenc.CountersPerBlock)
	for i := 0; i < ctrenc.CountersPerBlock; i++ {
		blockIdx := firstBlock + uint64(i)
		if blockIdx >= c.layout.DataBlocks {
			break
		}
		addr := blockIdx * nvm.LineSize
		var r nvm.ReadResult
		if !c.dev.ReadIfMaterialized(addr, &r) {
			continue // never written; nothing to re-encrypt
		}
		c.chargeReadLatency(addr)
		if r.Uncorrectable {
			return fmt.Errorf("%w: block %#x during page re-encryption", ErrDataError, addr)
		}
		ct := r.Data
		mb, macSlot, err := c.getMACLine(blockIdx)
		if err != nil {
			return err
		}
		if got := c.eng.DataMAC(addr, oldCounters[i], &ct); got != c.storedMAC(mb, blockIdx) {
			return fmt.Errorf("%w: block %#x during page re-encryption", ErrMACMismatch, addr)
		}
		pt := c.eng.Decrypt(addr, oldCounters[i], &ct)
		nct := c.eng.Encrypt(addr, cb.Counter().Counter(i), &pt)
		c.pushWrite(addr, &nct, WCData)
		c.setDataMAC(mb, macSlot, blockIdx, c.eng.DataMAC(addr, cb.Counter().Counter(i), &nct))
	}

	// The leaf changed wholesale: refresh bookkeeping and its tracking
	// state.
	for i := range cb.UpdatesPerSlot {
		cb.UpdatesPerSlot[i] = 0
	}
	c.mcache.MarkDirty(leaf)
	if err := c.strat.commitLeaf(c, c.layout.NodeAddr(1, leafIdx), leaf); err != nil {
		return err
	}
	c.stats.PageReencrypt++
	return nil
}

func (c *Controller) checkDataAddr(addr uint64) error {
	if c.crashed {
		return ErrCrashed
	}
	if addr%nvm.LineSize != 0 {
		return fmt.Errorf("memctrl: unaligned data address %#x", addr)
	}
	limit := c.cfg.NVM.CapacityBytes
	if addr >= limit {
		return fmt.Errorf("memctrl: data address %#x beyond capacity %#x", addr, limit)
	}
	return nil
}

// DrainWPQ advances time until every write accepted so far has left the
// write pending queue — the timing effect of an sfence/durability barrier.
// (Functionally WPQ writes are already durable; only time passes.)
func (c *Controller) DrainWPQ(now sim.Time) sim.Time {
	c.now = now
	c.now = c.q.FlushTime(c.now)
	return c.now
}

// FlushAll writes back every dirty metadata block (leaf levels first so
// parent bumps are folded in), then waits for the WPQ to drain. It leaves
// the NVM image fully self-consistent — the state VerifyAll checks and a
// clean shutdown produces.
func (c *Controller) FlushAll(now sim.Time) sim.Time {
	c.now = now
	if c.mode == ModeNonSecure {
		c.now = c.q.FlushTime(c.now)
		return c.now
	}
	for pass := 0; ; pass++ {
		if pass > c.layout.TopLevel()+2 {
			panic("memctrl: FlushAll failed to reach a fixpoint")
		}
		dirty := c.mcache.DirtyLines()
		// Lowest level first: leaf write-backs dirty their parents,
		// which later iterations of this pass pick up.
		work := false
		for level := 0; level <= c.layout.TopLevel(); level++ {
			for _, addr := range dirty {
				// Skip if a cascade already evicted or cleaned it.
				b, ok := c.mcache.Peek(addr)
				if !ok || b.Level != level || b.Kind == metacache.KindMAC || !c.mcache.IsDirty(addr) {
					continue
				}
				if err := c.forceWriteback(addr); errors.Is(err, ErrSetCapacity) {
					// No way for its parent: the block stays dirty and
					// tracked, so nothing is lost.
					continue
				} else if err != nil {
					// Unverifiable parent chain: the update is lost
					// (already accounted); clean the line so the
					// flush can terminate.
					c.stats.RecoveryLost++
					c.mcache.CleanLine(addr)
				}
				work = true
			}
		}
		if !work {
			break
		}
	}
	c.now = c.q.FlushTime(c.now)
	return c.now
}
