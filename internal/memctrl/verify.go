package memctrl

import (
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/nvm"
)

// VerifyAll audits the entire NVM image: every materialized metadata node
// must verify under its parent's counter (walking down from the on-chip
// root), every clone must match its home copy, and every materialized data
// block must pass its data-MAC check. Call FlushAll first so the cache and
// memory agree. Data blocks are walked in ascending address order
// (nvm.Device.ForEachTouched), so the data-block failure reported is the
// lowest-addressed one, deterministically. This is a test/diagnostic walk,
// deliberately off the timing path.
func (c *Controller) VerifyAll() error {
	if c.mode == ModeNonSecure {
		return nil
	}
	if c.crashed {
		return ErrCrashed
	}
	if dirty := c.mcache.DirtyLines(); len(dirty) != 0 {
		return fmt.Errorf("memctrl: VerifyAll with %d dirty cached blocks; call FlushAll first", len(dirty))
	}

	// Walk the tree top-down, keeping the verified content of each node
	// so children can be checked against a copy that actually verified
	// (the home copy might be the faulted one).
	top := c.layout.TopLevel()
	type nodeKey struct {
		level int
		index uint64
	}
	verifiedNodes := make(map[nodeKey]itree.Node)
	verifiedLeaves := make(map[uint64]ctrenc.CounterBlock)
	counterOf := func(level int, index uint64) (uint64, bool) {
		_, pindex, slot, stored := c.layout.Parent(level, index)
		if !stored {
			return c.root.Counters[slot], true
		}
		n, ok := verifiedNodes[nodeKey{level + 1, pindex}]
		if !ok {
			// Parent was pristine (never materialized): zero counter.
			return 0, true
		}
		return n.Counters[slot], true
	}
	for level := top; level >= 1; level-- {
		li := &c.layout.Levels[level-1]
		for index := uint64(0); index < li.Nodes; index++ {
			home := c.layout.NodeAddr(level, index)
			if !c.dev.Materialized(home) && !c.anyCloneMaterialized(level, index) {
				continue // pristine subtree
			}
			pctr, _ := counterOf(level, index)
			// Soteria's availability invariant: at least one copy of
			// every node must verify under the parent counter. A
			// corrupt or stale *minority* of copies is legal — the
			// fault handler repairs them lazily on the next access or
			// write-back — but zero verifiable copies means the
			// covered region is unverifiable.
			found := false
			for _, a := range c.layout.CopyAddrs(level, index) {
				r := c.dev.Read(a)
				if r.Uncorrectable {
					continue
				}
				line := r.Data
				if c.verifyLine(level, index, pctr, &line) {
					if !found {
						if level > 1 {
							verifiedNodes[nodeKey{level, index}] = itree.DeserializeNode(&line)
						} else {
							verifiedLeaves[index] = ctrenc.DeserializeCounterBlock(&line)
						}
					}
					found = true
				}
			}
			if !found {
				return fmt.Errorf("memctrl: verify: no verifiable copy of L%d[%d]", level, index)
			}
		}
	}

	// Verify every data block that was ever written.
	var verr error
	c.dev.ForEachTouched(func(addr uint64) {
		if verr != nil || addr >= c.layout.DataBytes {
			return
		}
		blockIdx := addr / nvm.LineSize
		var ctr uint64
		if cb, ok := verifiedLeaves[c.layout.CounterBlockOf(blockIdx)]; ok {
			ctr = cb.Counter(c.layout.SlotOf(blockIdx))
		}
		if ctr == 0 {
			// Materialized without a counter bump: only legitimate
			// if the content is still all zeroes (e.g. an injected
			// fault on a pristine line would show up here).
			r := c.dev.Read(addr)
			if r.Uncorrectable || !isZeroLine(&r.Data) {
				verr = fmt.Errorf("memctrl: verify: block %#x has content but counter 0", addr)
			}
			return
		}
		r := c.dev.Read(addr)
		if r.Uncorrectable {
			verr = fmt.Errorf("memctrl: verify: data block %#x uncorrectable", addr)
			return
		}
		lineAddr, off := c.layout.DataMACAddr(blockIdx)
		mr := c.dev.Read(lineAddr)
		if mr.Uncorrectable {
			verr = fmt.Errorf("memctrl: verify: MAC line of block %#x uncorrectable", addr)
			return
		}
		var want uint64
		for i := 0; i < 8; i++ {
			want |= uint64(mr.Data[off+i]) << uint(8*i)
		}
		ct := r.Data
		if c.eng.DataMAC(addr, ctr, &ct) != want {
			verr = fmt.Errorf("memctrl: verify: data block %#x MAC mismatch", addr)
		}
	})
	return verr
}

// anyCloneMaterialized reports whether any clone slot of the node holds
// written storage.
func (c *Controller) anyCloneMaterialized(level int, index uint64) bool {
	li := &c.layout.Levels[level-1]
	for ci := range li.CloneBases {
		if c.dev.Materialized(c.layout.CloneAddr(level, index, ci)) {
			return true
		}
	}
	return false
}
