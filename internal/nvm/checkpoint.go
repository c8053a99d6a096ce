package nvm

import (
	"fmt"
	"sort"

	"soteria/internal/sim"
)

// Checkpoint serializes the full device image — materialized lines with
// their stored ECC check bytes and stuck-at faults, wear counts, ECP state
// and statistics — in ascending line index order. The hook and
// telemetry handles are runtime wiring and are not part of the image.
func (d *Device) Checkpoint(w *sim.SnapW) {
	w.U64(d.capacity)
	w.U32(uint32(d.nCheck))

	w.U64(d.stats.Reads)
	w.U64(d.stats.Writes)
	w.U64(d.stats.CorrectedLines)
	w.U64(d.stats.UncorrectableHits)

	w.U32(uint32(d.touched))
	worn := 0
	d.forEach(func(idx uint64, l *storedLine) {
		w.U64(idx)
		w.Raw(l.data[:])
		w.Bytes(l.check[:d.nCheck])
		stuck := d.stuck[idx]
		w.Bool(stuck != nil)
		if stuck != nil {
			w.Raw(stuck.mask[:])
			w.Raw(stuck.val[:])
		}
		if l.wear != 0 {
			worn++
		}
	})

	w.U32(uint32(worn))
	d.forEach(func(idx uint64, l *storedLine) {
		if l.wear != 0 {
			w.U64(idx)
			w.U64(l.wear)
		}
	})

	w.I64(int64(d.ecpBudget))
	w.U64(d.ecpExhausted)
	ecpIdxs := make([]uint64, 0, len(d.ecp))
	for idx := range d.ecp {
		ecpIdxs = append(ecpIdxs, idx)
	}
	sort.Slice(ecpIdxs, func(i, j int) bool { return ecpIdxs[i] < ecpIdxs[j] })
	w.U32(uint32(len(ecpIdxs)))
	for _, idx := range ecpIdxs {
		entries := d.ecp[idx]
		w.U64(idx)
		w.U32(uint32(len(entries)))
		for _, e := range entries {
			w.U16(e.bit)
			w.Bool(e.val)
		}
	}
}

// Restore replaces the device image with a Checkpoint written by a device
// of identical capacity and codec. On any decode error the reader is
// poisoned and the device may hold a partial image; callers treat a failed
// restore as fatal for the target.
func (d *Device) Restore(r *sim.SnapR) error {
	if c := r.U64(); c != d.capacity {
		return fmt.Errorf("nvm: checkpoint capacity %d, device has %d", c, d.capacity)
	}
	if cb := r.U32(); int(cb) != d.nCheck {
		return fmt.Errorf("nvm: checkpoint check-byte width %d, codec has %d", cb, d.nCheck)
	}

	d.stats.Reads = r.U64()
	d.stats.Writes = r.U64()
	d.stats.CorrectedLines = r.U64()
	d.stats.UncorrectableHits = r.U64()

	maxIdx := d.capacity / LineSize
	// Every section lists its lines in ascending order; holding an image
	// to that rejects duplicates, which the paged store could not keep
	// apart, along with anything else no Checkpoint writes.
	var next uint64 // lowest index the current section may list next
	inOrder := func(section string, idx uint64) error {
		if idx >= maxIdx {
			return fmt.Errorf("nvm: checkpoint %s index %d beyond capacity", section, idx)
		}
		if idx < next {
			return fmt.Errorf("nvm: checkpoint %s index %d out of order", section, idx)
		}
		next = idx + 1
		return nil
	}

	d.reset()
	nLines := r.Count(LineSize + 5)
	for i := 0; i < nLines; i++ {
		idx := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if err := inOrder("line", idx); err != nil {
			return err
		}
		data := r.Raw(LineSize)
		check := r.Bytes()
		stuck := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if len(check) != d.nCheck {
			return fmt.Errorf("nvm: checkpoint line %d has %d check bytes, codec wants %d", idx, len(check), d.nCheck)
		}
		l := d.line(idx)
		copy(l.data[:], data)
		copy(l.check[:], check)
		if stuck {
			s := &stuckCells{}
			copy(s.mask[:], r.Raw(LineSize))
			copy(s.val[:], r.Raw(LineSize))
			if d.stuck == nil {
				d.stuck = make(map[uint64]*stuckCells)
			}
			d.stuck[idx] = s
		}
	}

	next = 0
	nWear := r.Count(16)
	for i := 0; i < nWear; i++ {
		idx, wear := r.U64(), r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if err := inOrder("wear", idx); err != nil {
			return err
		}
		l := d.lookup(idx)
		if l == nil || wear == 0 {
			return fmt.Errorf("nvm: checkpoint wear entry %d for line %d, which has no storage or no writes", wear, idx)
		}
		l.wear = wear
	}

	d.ecpBudget = int(r.I64())
	d.ecpExhausted = r.U64()
	next = 0
	nECP := r.Count(12)
	d.ecp = nil
	if d.ecpBudget > 0 || nECP > 0 {
		d.ecp = make(map[uint64][]ecpEntry, nECP)
	}
	for i := 0; i < nECP; i++ {
		idx := r.U64()
		nEnt := r.Count(3)
		if r.Err() != nil {
			return r.Err()
		}
		if err := inOrder("ECP", idx); err != nil {
			return err
		}
		entries := make([]ecpEntry, nEnt)
		for j := range entries {
			entries[j] = ecpEntry{bit: r.U16(), val: r.Bool()}
		}
		d.ecp[idx] = entries
	}
	return r.Err()
}
