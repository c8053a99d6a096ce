package tenant

import (
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// tenantCkptVersion is bumped on any change to the checkpoint layout.
const tenantCkptVersion = 1

// Checkpoint serializes the whole service — identity, the registry image,
// the volatile quota/rotation bookkeeping the registry does not persist,
// and a full device checkpoint — as one sealed snapshot. Restore on an
// identically configured service is byte-identical: Restore(Checkpoint())
// followed by Checkpoint() returns the same bytes. The registry records
// are carried in the snapshot (not re-read from the restored device)
// precisely to keep that identity: reloading them through the device
// would advance the device clocks. Key-domain engines and the guard cache
// are pure caches and excluded; per-tenant telemetry restarts.
func (s *Service) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &sim.SnapW{}
	// Identity.
	w.U32(uint32(s.opts.MaxTenants))
	w.U32(uint32(s.opts.QuotaWindow))
	w.U32(uint32(s.opts.FairBurst))
	w.U64(s.keyCheck())
	// Registry image + volatile service state.
	w.U64(s.sb.nextFree)
	w.U32(s.sb.gen)
	w.U64(s.opClock)
	var count uint32
	for _, ts := range s.recs {
		if ts != nil {
			count++
		}
	}
	w.U32(count)
	for _, ts := range s.recs {
		if ts == nil {
			continue
		}
		enc := ts.rec.encode()
		w.Bytes(enc[:])
		w.U64(ts.windowID)
		w.U32(ts.usedOps)
		w.U64(ts.rotCursor)
	}
	// The device underneath (which holds the persistent registry, guard
	// tables and ciphertext).
	dev, err := s.dev.Checkpoint()
	if err != nil {
		return nil, err
	}
	w.Bytes(dev)
	return sim.Seal(sim.SnapKindTenant, tenantCkptVersion, w.Data()), nil
}

// Restore replaces the service's entire state with a checkpoint taken
// from an identically configured service: the device is restored first,
// then the registry and volatile per-tenant state are rebuilt from the
// snapshot's own registry image. On a decode or identity error nothing is
// touched; if the device restore fails after decoding succeeded, the
// device's own guarantees apply.
func (s *Service) Restore(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, err := sim.Open(sim.SnapKindTenant, tenantCkptVersion, data)
	if err != nil {
		return err
	}
	r := sim.NewSnapR(payload)
	if n := int(r.U32()); r.Err() == nil && n != s.opts.MaxTenants {
		return fmt.Errorf("tenant: checkpoint for %d tenants, service has %d", n, s.opts.MaxTenants)
	}
	if n := int(r.U32()); r.Err() == nil && n != s.opts.QuotaWindow {
		return fmt.Errorf("tenant: checkpoint quota window %d, service has %d", n, s.opts.QuotaWindow)
	}
	if n := int(r.U32()); r.Err() == nil && n != s.opts.FairBurst {
		return fmt.Errorf("tenant: checkpoint fair burst %d, service has %d", n, s.opts.FairBurst)
	}
	if k := r.U64(); r.Err() == nil && k != s.keyCheck() {
		return fmt.Errorf("tenant: checkpoint sealed under a different master key")
	}
	nextFree := r.U64()
	gen := r.U32()
	opClock := r.U64()
	type staged struct {
		rec      Record
		windowID uint64
		usedOps  uint32
		cursor   uint64
	}
	count := r.U32()
	if r.Err() == nil && int(count) > s.opts.MaxTenants {
		return fmt.Errorf("tenant: checkpoint names %d tenants, max is %d", count, s.opts.MaxTenants)
	}
	stages := make([]staged, 0, count)
	for i := uint32(0); i < count && r.Err() == nil; i++ {
		raw := r.Bytes()
		if r.Err() != nil {
			break
		}
		if len(raw) != nvm.LineSize {
			return fmt.Errorf("tenant: checkpoint record %d is %d bytes", i, len(raw))
		}
		var l nvm.Line
		copy(l[:], raw)
		rec, err := decodeRecord(&l)
		if err != nil {
			return err
		}
		if rec.ID == 0 || int(rec.ID) > s.opts.MaxTenants {
			return fmt.Errorf("tenant: checkpoint record names tenant %d", rec.ID)
		}
		if rec.AuthCheck != s.token(rec.ID) {
			return fmt.Errorf("tenant: checkpoint record %d token does not derive from the master key", rec.ID)
		}
		stages = append(stages, staged{rec: rec, windowID: r.U64(), usedOps: r.U32(), cursor: r.U64()})
	}
	devCkpt := r.Bytes()
	if err := r.Done(); err != nil {
		return err
	}
	if err := s.dev.Restore(devCkpt); err != nil {
		return err
	}
	// Device state is now the checkpointed image; rebuild the in-memory
	// registry from the snapshot and drop every volatile cache.
	s.sb.nextFree = nextFree
	s.sb.gen = gen
	s.sb.maxTenants = uint32(s.opts.MaxTenants)
	s.sb.capLines = s.capLines
	s.sb.keyCheck = s.keyCheck()
	s.opClock = opClock
	s.recs = make([]*tenantState, s.opts.MaxTenants+1)
	s.active = 0
	s.guards = map[uint64]*nvm.Line{}
	s.engines = map[uint64]*ctrenc.Engine{}
	for _, st := range stages {
		ts := s.install(st.rec)
		ts.windowID = st.windowID
		ts.usedOps = st.usedOps
		ts.rotCursor = st.cursor
	}
	return nil
}
