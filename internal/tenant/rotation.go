package tenant

import (
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// RotationStatus reports the progress of a tenant's key rotation.
type RotationStatus struct {
	// Rotating is true while lines may still be sealed under Epoch-1.
	Rotating bool
	// Epoch is the current key-domain epoch.
	Epoch uint32
	// Cursor is the sweep position (lines [0, Cursor) are guaranteed
	// current-epoch). Volatile: restarts at zero after a crash.
	Cursor uint64
	// DataLines is the extent size, for progress reporting.
	DataLines uint64
}

// Done reports sweep completion.
func (st RotationStatus) Done() bool { return !st.Rotating }

// Rotate begins an online key rotation for tenant id: the epoch advances
// and the Rotating flag is set in ONE persisted record write — the
// crash-atomic transition — before any line is sealed under the new
// epoch. From that point reads accept (and lazily rewrite) lines under
// either epoch, new writes seal under the new epoch, and RotateStep
// sweeps the stragglers. A crash anywhere in between recovers into the
// same rotating state and simply resumes.
func (s *Service) Rotate(id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.lookup(id)
	if err != nil {
		return err
	}
	if ts.rec.Rotating {
		return ErrRotating
	}
	ts.rec.Epoch++
	ts.rec.Rotating = true
	ts.rotCursor = 0
	if err := s.persistRecord(ts); err != nil {
		ts.rec.Epoch--
		ts.rec.Rotating = false
		return err
	}
	return nil
}

// RotateStep advances tenant id's rotation sweep by up to maxLines lines,
// re-encrypting any line still sealed under the previous epoch. It
// returns the number of lines actually rewritten and whether the rotation
// is complete — a tenant with no rotation in progress is done with none
// rewritten. Completion (clearing Rotating, retiring the old epoch's
// keys) is again a single persisted record write.
//
// The sweep is idempotent: a line already under the current epoch is
// skipped, so restarting from cursor zero after a crash redoes no
// cryptographic work beyond re-reading. Sweep operations bypass quota
// admission — rotation is service work, not tenant traffic.
func (s *Service) RotateStep(id uint32, maxLines int) (rotated int, done bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.lookup(id)
	if err != nil {
		return 0, false, err
	}
	if !ts.rec.Rotating {
		return 0, true, nil
	}
	if maxLines <= 0 {
		maxLines = 1
	}
	for i := 0; i < maxLines && ts.rotCursor < ts.rec.DataLines; i++ {
		_, _, rot, err := s.readLine(ts, ts.rotCursor, true)
		if err != nil {
			return rotated, false, err
		}
		if rot {
			rotated++
		}
		ts.rotCursor++
	}
	if ts.rotCursor < ts.rec.DataLines {
		return rotated, false, nil
	}
	// Sweep complete: every line is current-epoch (or never written).
	// Persist the completion, then drop the old epoch's engine — its key
	// domain is dead from here on, so a read of old-epoch ciphertext now
	// fails integrity like any other foreign data.
	ts.rec.Rotating = false
	if err := s.persistRecord(ts); err != nil {
		ts.rec.Rotating = true
		return rotated, false, err
	}
	delete(s.engines, uint64(ts.rec.ID)<<32|uint64(ts.rec.Epoch-1))
	return rotated, true, nil
}

// RotateStatus reports tenant id's rotation progress.
func (s *Service) RotateStatus(id uint32) (RotationStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.lookup(id)
	if err != nil {
		return RotationStatus{}, err
	}
	return RotationStatus{
		Rotating:  ts.rec.Rotating,
		Epoch:     ts.rec.Epoch,
		Cursor:    ts.rotCursor,
		DataLines: ts.rec.DataLines,
	}, nil
}

// VerifyTenant authenticates every written line of tenant id under its
// admissible epochs — the tenant-layer analogue of the device's
// VerifyAll. Quota admission is bypassed; no lazy rewrites happen.
func (s *Service) VerifyTenant(id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.lookup(id)
	if err != nil {
		return err
	}
	for line := uint64(0); line < ts.rec.DataLines; line++ {
		if _, _, _, err := s.readLine(ts, line, false); err != nil {
			return err
		}
	}
	return nil
}

// CrossCheck attempts to open victim's line addr under attacker's key
// domain, bypassing the namespace confinement that normally makes the
// attempt impossible to even express. It returns nil when isolation HELD
// (the open failed with an integrity error) and a descriptive error when
// anything else happened — the oracle the chaos tenants leg runs at every
// crash point.
func (s *Service) CrossCheck(attacker, victim uint32, addr uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	att, err := s.lookup(attacker)
	if err != nil {
		return err
	}
	vic, err := s.lookup(victim)
	if err != nil {
		return err
	}
	line := addr / nvm.LineSize
	if line >= vic.rec.DataLines {
		return &RangeError{Tenant: victim, Addr: addr, Lines: vic.rec.DataLines}
	}
	gLine, gOff := vic.rec.guardLine(line)
	var lat sim.Time
	gl, err := s.guardLineRef(gLine, &lat)
	if err != nil {
		return err
	}
	ge := getGuardEntry(gl, gOff)
	if !ge.written() {
		// Nothing stored, nothing to steal.
		return nil
	}
	// Try every (attacker epoch, guard entry) combination the attacker's
	// read path would — each entry names its physical slot by counter
	// parity — and each must fail to authenticate.
	epochs := []uint32{att.rec.Epoch}
	if att.rec.Rotating && att.rec.Epoch > 1 {
		epochs = append(epochs, att.rec.Epoch-1)
	}
	for _, e := range epochs {
		eng := s.dataEngine(att.rec.ID, e)
		for _, slot := range [2]struct {
			mac uint64
			ctr uint32
			gen uint32
		}{{ge.curMAC, ge.curCtr, ge.curGen}, {ge.prevMAC, ge.prevCtr, ge.prevGen}} {
			if slot.ctr == 0 {
				continue
			}
			data, _, err := s.dev.Read(vic.rec.dataLine(line, slot.ctr) * nvm.LineSize)
			if err != nil {
				return err
			}
			if eng.MAC(ctrenc.DomainTenant, line, ctrWord(e, slot.gen, slot.ctr), data[:]) == slot.mac {
				return &isolationBreach{attacker: attacker, victim: victim, line: line, epoch: e}
			}
		}
	}
	return nil
}

// isolationBreach is CrossCheck's failure: a foreign line authenticated
// under the attacker's keys. It should be unconstructible.
type isolationBreach struct {
	attacker, victim uint32
	line             uint64
	epoch            uint32
}

func (e *isolationBreach) Error() string {
	return fmt.Sprintf("tenant isolation breach: tenant %d authenticated tenant %d line %d under epoch %d",
		e.attacker, e.victim, e.line, e.epoch)
}
