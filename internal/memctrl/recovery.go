package memctrl

import (
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/nvm"
	"soteria/internal/shadow"
)

// Crash models a sudden power loss: every volatile structure (the metadata
// cache, the WPQ occupancy bookkeeping, in-flight write-back state, and the
// shadow table's valid flags and stats) vanishes. Writes already accepted
// by the WPQ are durable (ADR), and the ToC root and the shadow table's BMT
// leaf MACs survive on chip, so the table itself stays in place and
// TrackedSlots is empty until Recover reads it back. The controller refuses
// further data operations until Recover is called.
//
// Crashing an already-crashed controller returns ErrCrashed — unless a
// recovery is in progress, in which case the nested crash is legal: the
// shadow BMT already holds recovery's own shadow writes, and the next
// Recover starts over from the entries that survive on NVM.
func (c *Controller) Crash() error {
	if c.mode == ModeNonSecure {
		return nil // nothing volatile matters
	}
	if c.crashed && !c.recovering {
		return ErrCrashed
	}
	c.mcache.DropAll()
	c.strat.onCrash(c)
	c.q.Reset()
	c.fills = c.fills[:0]
	c.cascade = 0
	c.sealDepth = 0
	c.recovering = false
	c.crashed = true
	return nil
}

// FailedBlock is one tracked metadata block whose reconstruction failed,
// with the reason it was lost.
type FailedBlock struct {
	Addr   uint64
	Reason string
}

// RecoveryReport summarizes what Recover reconstructed.
type RecoveryReport struct {
	// TrackedEntries is the number of valid shadow entries found.
	TrackedEntries int
	// RecoveredBlocks is how many metadata blocks were reconstructed
	// and verified against their shadow MACs.
	RecoveredBlocks int
	// LostSlots lists shadow slots that could not be read at all.
	LostSlots []uint64
	// FailedBlocks lists tracked blocks whose reconstruction failed
	// verification (unrecoverable updates), each with its reason.
	FailedBlocks []FailedBlock
	// HalfRepairs counts Soteria duplicated-entry repairs performed.
	HalfRepairs uint64
}

// Recover rebuilds a consistent, verifiable memory image after Crash().
// The mechanics are the strategy's: the shadow strategies read every entry
// back through the surviving BMT, then Soteria patches stale copies with
// tracked counter LSBs (leaf minors through Osiris) while anubis-shadow
// decodes the exact block images its content entries hold; Triad
// re-derives its relaxed tree levels from the persisted ones by bounded
// counter search. All of them end with the reconstructed blocks reseeded as
// dirty cache contents and flushed through the ordinary lazy write-back
// machinery, leaving NVM self-consistent; a crash *during* recovery is
// always survivable (the next Recover starts over).
func (c *Controller) Recover() (*RecoveryReport, error) {
	if c.mode == ModeNonSecure {
		return &RecoveryReport{}, nil
	}
	if !c.crashed {
		return nil, ErrNotCrashed
	}
	c.recovering = true
	c.note("recover-begin")
	return c.strat.recover(c)
}

// counterTotal sums a reconstructed block's counters. Counters only ever
// grow, so of two reconstructions of the same block the one with the larger
// total is the fresher.
func counterTotal(b *metacache.Block) uint64 {
	var t uint64
	if b.Kind == metacache.KindCounter {
		for i := 0; i < ctrenc.CountersPerBlock; i++ {
			t += b.Counter().Counter(i)
		}
		return t
	}
	for i := 0; i < itree.CountersPerNode; i++ {
		t += b.Node().Counter(i)
	}
	return t
}

// recoverBlock reconstructs one tracked metadata block from whichever raw
// copy (home or clone) yields content matching the shadow entry's MAC.
// The entry MAC is keyed and binds the block's full content and home
// address, so acceptance through it is as strong as the parent-counter
// check used on the normal read path — and unlike that check it does not
// depend on how far the parent's own write-back had progressed when power
// failed.
func (c *Controller) recoverBlock(level int, index uint64, e *shadow.Entry) (metacache.Block, error) {
	var lastErr error
	for _, addr := range c.layout.CopyAddrs(level, index) {
		r := c.dev.Read(addr)
		if r.Uncorrectable {
			if lastErr == nil {
				lastErr = fmt.Errorf("copy %#x uncorrectable", addr)
			}
			continue
		}
		line := r.Data
		blk, err := c.reconstruct(level, index, e, &line)
		if err != nil {
			lastErr = err
			continue
		}
		return blk, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no stored copies")
	}
	return metacache.Block{}, fmt.Errorf("memctrl: cannot reconstruct L%d[%d] from any copy: %v", level, index, lastErr)
}

// reconstruct patches one stale copy of (level, index) with the entry's
// counter LSBs (leaf minors via Osiris) and accepts the result iff it
// reproduces the entry's content MAC.
func (c *Controller) reconstruct(level int, index uint64, e *shadow.Entry, line *nvm.Line) (metacache.Block, error) {
	blk := metacache.Block{Kind: metacache.KindNode, Level: level, Index: index}
	var stale, rec ctrenc.CounterBlock
	if level == 1 {
		stale = ctrenc.DeserializeCounterBlock(line)
		var err error
		if rec, err = c.recoverLeaf(index, stale, e.LSBs[0]); err != nil {
			return metacache.Block{}, err
		}
		blk.Kind, blk.Line = metacache.KindCounter, rec.Serialize()
	} else {
		n := itree.DeserializeNode(line)
		for i := range n.Counters {
			n.Counters[i] = restoreLSB(n.Counters[i], e.LSBs[i]) & itree.CounterMask
		}
		blk.Line = n.Serialize()
	}

	if shadow.ContentMAC(c.eng, e.Addr, &blk.Line) != e.MAC {
		detail := ""
		if level == 1 {
			detail = fmt.Sprintf(" (stale major=%d minors=%v; rec major=%d minors=%v; lsb=%#x)",
				stale.Major, nonzero(stale.Minors[:]), rec.Major, nonzero(rec.Minors[:]), e.LSBs[0])
		}
		return metacache.Block{}, fmt.Errorf("memctrl: reconstructed L%d[%d] fails shadow MAC%s", level, index, detail)
	}
	return blk, nil
}

// nonzero renders the non-zero slots of a counter array for diagnostics.
func nonzero(m []uint8) map[int]uint8 {
	out := map[int]uint8{}
	for i, v := range m {
		if v != 0 {
			out[i] = v
		}
	}
	return out
}

// recoverLeaf rebuilds a split-counter block: the major counter from its
// shadow LSBs, each minor via Osiris trials against the persisted per-block
// data MACs.
func (c *Controller) recoverLeaf(index uint64, stale ctrenc.CounterBlock, majorLSB uint16) (ctrenc.CounterBlock, error) {
	firstBlock := index * uint64(ctrenc.CountersPerBlock)
	verify := func(slot int, counter uint64) bool {
		blockIdx := firstBlock + uint64(slot)
		if blockIdx >= c.layout.DataBlocks {
			// Slot beyond the data region: only the pristine zero
			// counter is acceptable.
			return counter&((1<<ctrenc.MinorBits)-1) == 0
		}
		addr := blockIdx * nvm.LineSize
		if counter&((1<<ctrenc.MinorBits)-1) == 0 && !c.dev.Materialized(addr) {
			// A never-written block: a zero minor is the pristine
			// state under any major (page re-encryptions skip
			// untouched blocks).
			return true
		}
		r := c.dev.Read(addr)
		if r.Uncorrectable {
			return false
		}
		lineAddr, off := c.layout.DataMACAddr(blockIdx)
		mr := c.dev.Read(lineAddr)
		if mr.Uncorrectable {
			return false
		}
		var want uint64
		for i := 0; i < 8; i++ {
			want |= uint64(mr.Data[off+i]) << uint(8*i)
		}
		ct := r.Data
		return c.eng.DataMAC(addr, counter, &ct) == want
	}

	rec, failed, err := recoverCounterBlock(stale, majorLSB, osirisLimit, verify)
	if err != nil {
		return ctrenc.CounterBlock{}, err
	}
	if len(failed) > 0 {
		return ctrenc.CounterBlock{}, fmt.Errorf("memctrl: Osiris could not recover %d minors of counter block %d", len(failed), index)
	}
	return rec, nil
}
