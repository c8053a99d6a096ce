package nvm

// Error-Correcting Pointers (ECP — Schechter et al., ISCA 2010), the
// hard-error repair mechanism the paper names alongside ECC in §2.3. Unlike
// ECC, which decodes on every read, ECP works at *write* time: the
// controller writes a line, reads it back, and for every cell that failed
// to take the new value it allocates a pointer (bit position) plus a
// replacement bit. Reads substitute the replacement bits before ECC ever
// sees the line, so a line with a few worn-out cells keeps working until
// its pointer budget is exhausted.

// ecpEntry is one repaired cell.
type ecpEntry struct {
	bit uint16 // bit position within the 512-bit line
	val bool   // the value the dead cell should present
}

// ECPStats reports ECP activity.
type ECPStats struct {
	// LinesRepaired counts lines with at least one allocated pointer.
	LinesRepaired int
	// PointersUsed counts allocated pointers across all lines.
	PointersUsed int
	// Exhausted counts write-backs that found more failed cells than
	// the per-line pointer budget (the line then stores corrupt data
	// and must be caught by ECC/MAC layers or retired).
	Exhausted uint64
}

// EnableECP activates ECP with the given per-line pointer budget (ECP-6 is
// the configuration from the original paper). Must be called before any
// faults are injected; pointersPerLine <= 0 disables.
func (d *Device) EnableECP(pointersPerLine int) {
	d.ecpBudget = pointersPerLine
	if d.ecp == nil {
		d.ecp = make(map[uint64][]ecpEntry)
	}
}

// ECPStats returns a snapshot of ECP activity.
func (d *Device) ECPStats() ECPStats {
	s := ECPStats{Exhausted: d.ecpExhausted}
	for _, entries := range d.ecp {
		if len(entries) > 0 {
			s.LinesRepaired++
			s.PointersUsed += len(entries)
		}
	}
	return s
}

// ecpRepairAfterWrite runs the write-verify step: diff the intended line
// against the stored cells and allocate pointers for cells that did not
// take the value, or drop the line's pointers when none are needed or
// more than the budget would be.
func (d *Device) ecpRepairAfterWrite(idx uint64, intended, cells *Line) {
	if d.ecpBudget <= 0 {
		return
	}
	var entries []ecpEntry
	for byteIdx := 0; byteIdx < LineSize; byteIdx++ {
		diff := intended[byteIdx] ^ cells[byteIdx]
		for bit := uint16(0); diff != 0; bit++ {
			if diff&1 != 0 {
				entries = append(entries, ecpEntry{
					bit: uint16(byteIdx)*8 + bit,
					val: intended[byteIdx]&(1<<bit) != 0,
				})
			}
			diff >>= 1
		}
	}
	switch {
	case len(entries) == 0:
		delete(d.ecp, idx)
	case len(entries) > d.ecpBudget:
		d.ecpExhausted++
		delete(d.ecp, idx) // stale pointers would mask the real damage
	default:
		d.ecp[idx] = entries
	}
}

// ecpApply substitutes repaired cells into a line image before ECC decode.
func (d *Device) ecpApply(idx uint64, buf *Line) {
	if d.ecpBudget <= 0 || len(d.ecp) == 0 {
		return
	}
	for _, e := range d.ecp[idx] {
		byteIdx, bit := e.bit/8, e.bit%8
		if e.val {
			buf[byteIdx] |= 1 << bit
		} else {
			buf[byteIdx] &^= 1 << bit
		}
	}
}
