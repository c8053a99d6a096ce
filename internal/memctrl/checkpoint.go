package memctrl

import (
	"fmt"

	"soteria/internal/sim"
)

// ckptFormatVersion is the controller checkpoint envelope version; bump it
// whenever any serialized layout below (or in a component Checkpoint)
// changes shape.
const ckptFormatVersion = 2

// Checkpoint serializes the controller's complete state — persistent
// registers, timing, statistics, banks, the full NVM image, the WPQ, the
// metadata cache, fault-handler books and the strategy's tracking state —
// into a self-validating envelope. Checkpoints are only taken at operation
// boundaries: a controller inside a sealed transaction or with in-flight
// write-backs refuses (those states exist only within one ReadBlock/
// WriteBlock call and are never observable by the engine runtime).
//
// Restoring onto a controller built with the same config, mode, key and
// options reproduces the source byte-for-byte: Restore(A.Checkpoint())
// followed by Checkpoint() yields identical bytes.
func (c *Controller) Checkpoint() ([]byte, error) {
	if c.sealDepth != 0 || c.bootstrap || c.recovering {
		return nil, fmt.Errorf("memctrl: checkpoint inside a transaction (seal depth %d)", c.sealDepth)
	}
	if len(c.inflight) != 0 || len(c.forcing) != 0 || len(c.pinned) != 0 {
		return nil, fmt.Errorf("memctrl: checkpoint with in-flight write-backs")
	}
	w := &sim.SnapW{}

	// Identity: enough to reject a checkpoint aimed at a differently
	// configured controller before any state is touched.
	w.U8(uint8(c.mode))
	w.String(c.strat.name())
	w.U64(c.cfg.NVM.CapacityBytes)
	w.U64(c.dev.Capacity())
	w.I64(int64(c.osirisLimit))
	w.Bool(c.eager)
	w.Bool(c.opt.DisableShadowHalfRepair)

	// Persistent on-chip registers.
	for _, ctr := range c.root.Counters {
		w.U64(ctr)
	}
	w.U64(c.root.MAC)
	w.U64(c.shadowRoot)

	// Volatile scalars.
	w.Time(c.now)
	w.Bool(c.crashed)
	w.I64(int64(c.cascade))

	w.U64(c.stats.MemRequests)
	w.U64(c.stats.DataReads)
	w.U64(c.stats.DataWrites)
	w.U64(c.stats.ColdReads)
	for _, v := range c.stats.NVMWrites {
		w.U64(v)
	}
	w.U64(c.stats.NVMReads)
	w.U64(c.stats.WPQForwards)
	w.U64(c.stats.PageReencrypt)
	w.U64(c.stats.ForcedWB)
	w.U64(c.stats.RecoveredOK)
	w.U64(c.stats.RecoveryLost)

	c.banks.Checkpoint(w)
	c.dev.Checkpoint(w)
	c.q.Checkpoint(w)
	if c.mode != ModeNonSecure {
		c.mcache.Checkpoint(w)
		c.fh.Checkpoint(w)
		c.strat.checkpoint(c, w)
	}
	return sim.Seal(sim.SnapKindController, ckptFormatVersion, w.Data()), nil
}

// Restore replaces the controller's state with a Checkpoint. The target
// must be freshly constructed with the same config, mode, key and options
// as the source; mismatches are rejected by the identity header. A decode
// failure can leave the target partially restored — treat it as unusable.
func (c *Controller) Restore(data []byte) error {
	payload, err := sim.Open(sim.SnapKindController, ckptFormatVersion, data)
	if err != nil {
		return err
	}
	r := sim.NewSnapR(payload)

	if m := Mode(r.U8()); r.Err() == nil && m != c.mode {
		return fmt.Errorf("memctrl: checkpoint mode %v, controller is %v", m, c.mode)
	}
	if s := r.String(); r.Err() == nil && s != c.strat.name() {
		return fmt.Errorf("memctrl: checkpoint strategy %q, controller runs %q", s, c.strat.name())
	}
	if cap := r.U64(); r.Err() == nil && cap != c.cfg.NVM.CapacityBytes {
		return fmt.Errorf("memctrl: checkpoint data capacity %d, controller has %d", cap, c.cfg.NVM.CapacityBytes)
	}
	if cap := r.U64(); r.Err() == nil && cap != c.dev.Capacity() {
		return fmt.Errorf("memctrl: checkpoint device capacity %d, controller has %d", cap, c.dev.Capacity())
	}
	if lim := int(r.I64()); r.Err() == nil && lim != c.osirisLimit {
		return fmt.Errorf("memctrl: checkpoint Osiris limit %d, controller has %d", lim, c.osirisLimit)
	}
	if e := r.Bool(); r.Err() == nil && e != c.eager {
		return fmt.Errorf("memctrl: checkpoint eager=%v, controller has %v", e, c.eager)
	}
	if n := r.Bool(); r.Err() == nil && n != c.opt.DisableShadowHalfRepair {
		return fmt.Errorf("memctrl: checkpoint half-repair options differ")
	}
	if r.Err() != nil {
		return r.Err()
	}

	for i := range c.root.Counters {
		c.root.Counters[i] = r.U64()
	}
	c.root.MAC = r.U64()
	c.shadowRoot = r.U64()

	c.now = r.Time()
	c.crashed = r.Bool()
	c.recovering = false
	c.cascade = int(r.I64())

	c.stats.MemRequests = r.U64()
	c.stats.DataReads = r.U64()
	c.stats.DataWrites = r.U64()
	c.stats.ColdReads = r.U64()
	for i := range c.stats.NVMWrites {
		c.stats.NVMWrites[i] = r.U64()
	}
	c.stats.NVMReads = r.U64()
	c.stats.WPQForwards = r.U64()
	c.stats.PageReencrypt = r.U64()
	c.stats.ForcedWB = r.U64()
	c.stats.RecoveredOK = r.U64()
	c.stats.RecoveryLost = r.U64()
	if r.Err() != nil {
		return r.Err()
	}

	if err := c.banks.Restore(r); err != nil {
		return err
	}
	if err := c.dev.Restore(r); err != nil {
		return err
	}
	if err := c.q.Restore(r); err != nil {
		return err
	}
	if c.mode != ModeNonSecure {
		if err := c.mcache.Restore(r); err != nil {
			return err
		}
		if err := c.fh.Restore(r); err != nil {
			return err
		}
		if err := c.strat.restore(c, r); err != nil {
			return err
		}
	}

	// Transient per-operation structures restart empty.
	c.resetTransient()
	c.sealDepth = 0
	return r.Done()
}
