package shadow

import (
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/sim"
)

// Checkpoint serializes the table's volatile state: the BMT's on-chip state
// (root register and trusted node copy), the slot mirror and the
// statistics. The stored lines themselves live in the NVM device,
// checkpointed by its owner.
func (t *Table) Checkpoint(w *sim.SnapW) {
	w.U64(t.base)
	w.U64(t.slots)
	w.Bool(t.duped)
	w.Bool(t.norep)
	t.bmt.Checkpoint(w)
	checkpointStats(w, &t.stats)
	for _, e := range t.mirror {
		w.Bool(e.Valid)
		if !e.Valid {
			continue
		}
		w.U64(e.Addr)
		for _, v := range e.LSBs {
			w.U16(v)
		}
		w.U64(e.MAC)
	}
}

// RestoreTable rebuilds a Table from a Checkpoint over the (already
// restored) NVM image behind store. It reads no device line.
func RestoreTable(eng *ctrenc.Engine, store Store, base uint64, slots uint64, treeBase uint64, opt Options, r *sim.SnapR) (*Table, error) {
	if b := r.U64(); b != base {
		return nil, fmt.Errorf("shadow: checkpoint base %#x, layout has %#x", b, base)
	}
	if s := r.U64(); s != slots {
		return nil, fmt.Errorf("shadow: checkpoint slots %d, layout has %d", s, slots)
	}
	if d := r.Bool(); d != opt.Duplicate {
		return nil, fmt.Errorf("shadow: checkpoint duplicate=%v, options have %v", d, opt.Duplicate)
	}
	if n := r.Bool(); n != opt.DisableHalfRepair {
		return nil, fmt.Errorf("shadow: checkpoint norepair=%v, options have %v", n, opt.DisableHalfRepair)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	bmt, err := itree.RestoreBMT(eng, store, base, slots, treeBase, r)
	if err != nil {
		return nil, err
	}
	t := onBMT(eng, store, base, slots, bmt, opt)
	restoreStats(r, &t.stats)
	for i := range t.mirror {
		if !r.Bool() {
			continue
		}
		e := Entry{Valid: true, Addr: r.U64()}
		for j := range e.LSBs {
			e.LSBs[j] = r.U16()
		}
		e.MAC = r.U64()
		t.mirror[i] = e
	}
	return t, r.Err()
}

// Checkpoint serializes the content table's volatile state (the BMT's
// on-chip state, mirror, statistics).
func (t *ContentTable) Checkpoint(w *sim.SnapW) {
	w.U64(t.base)
	w.U64(t.slots)
	t.bmt.Checkpoint(w)
	checkpointStats(w, &t.stats)
	for _, e := range t.mirror {
		w.Bool(e.valid)
		if e.valid {
			w.U64(e.addr)
		}
	}
}

// RestoreContentTable rebuilds a ContentTable from a Checkpoint over the
// (already restored) NVM image behind store. It reads no device line.
func RestoreContentTable(eng *ctrenc.Engine, store Store, base uint64, slots uint64, treeBase uint64, r *sim.SnapR) (*ContentTable, error) {
	if b := r.U64(); b != base {
		return nil, fmt.Errorf("shadow: content checkpoint base %#x, layout has %#x", b, base)
	}
	if s := r.U64(); s != slots {
		return nil, fmt.Errorf("shadow: content checkpoint slots %d, layout has %d", s, slots)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	bmt, err := itree.RestoreBMT(eng, store, base, slots*ContentLinesPerSlot, treeBase, r)
	if err != nil {
		return nil, err
	}
	t := contentOnBMT(eng, store, base, slots, bmt)
	restoreStats(r, &t.stats)
	for i := range t.mirror {
		if r.Bool() {
			t.mirror[i] = contentMirror{valid: true, addr: r.U64()}
		}
	}
	return t, r.Err()
}

func checkpointStats(w *sim.SnapW, s *Stats) {
	w.U64(s.EntryWrites)
	w.U64(s.Invalidations)
	w.U64(s.HalfRepairs)
	w.U64(s.LostEntries)
}

func restoreStats(r *sim.SnapR, s *Stats) {
	s.EntryWrites = r.U64()
	s.Invalidations = r.U64()
	s.HalfRepairs = r.U64()
	s.LostEntries = r.U64()
}
