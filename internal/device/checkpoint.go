package device

import (
	"fmt"

	"soteria/internal/sim"
)

// TraceEvent is one executed data-plane operation in the canonical event
// trace. Shard streams are concatenated in shard order, and Seq/At depend
// only on the shard's own history.
type TraceEvent struct {
	Shard int
	Seq   uint64
	At    sim.Time
	Op    uint8
	Addr  uint64
	ID    uint64
}

// ckptVersion is bumped on any change to the device checkpoint layout.
const ckptVersion = 2

// Trace returns a copy of the canonical event trace: per-shard execution
// streams concatenated in shard order (empty unless Options.Trace is set).
func (d *Device) Trace() []TraceEvent {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	d.lockShards()
	defer d.unlockShards()
	var out []TraceEvent
	for _, s := range d.shards {
		out = append(out, s.trace...)
	}
	return out
}

// EncodeTrace serializes a trace with the snapshot codec (no envelope; the
// chaos replay format seals it inside its own).
func EncodeTrace(evs []TraceEvent) []byte {
	w := &sim.SnapW{}
	AppendTrace(w, evs)
	return w.Data()
}

// AppendTrace writes a trace into an open snapshot writer.
func AppendTrace(w *sim.SnapW, evs []TraceEvent) {
	w.U32(uint32(len(evs)))
	for _, ev := range evs {
		w.U32(uint32(ev.Shard))
		w.U64(ev.Seq)
		w.Time(ev.At)
		w.U8(ev.Op)
		w.U64(ev.Addr)
		w.U64(ev.ID)
	}
}

// ReadTrace decodes a trace written by AppendTrace.
func ReadTrace(r *sim.SnapR) []TraceEvent {
	n := r.Count(4 + 8 + 8 + 1 + 8 + 8)
	if n == 0 {
		return nil
	}
	out := make([]TraceEvent, n)
	for i := range out {
		out[i].Shard = int(r.U32())
		out[i].Seq = r.U64()
		out[i].At = r.Time()
		out[i].Op = r.U8()
		out[i].Addr = r.U64()
		out[i].ID = r.U64()
	}
	return out
}

// Checkpoint serializes the full device state — device bookkeeping,
// per-shard clocks and execution sequence numbers, and every shard's
// controller (memctrl + metadata cache + WPQ + NVM + strategy state) — as
// one sealed snapshot. It holds the control mutex and every shard lock, so
// under concurrent traffic the snapshot is a consistent cut at an operation
// boundary on every shard. Restore on an identically configured device is
// byte-identical: Restore(Checkpoint()) followed by Checkpoint() returns
// the same bytes. Telemetry is excluded (counters restart from zero).
func (d *Device) Checkpoint() ([]byte, error) {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return nil, ErrClosed
	}
	d.lockShards()
	defer d.unlockShards()
	w := &sim.SnapW{}
	// Identity: a checkpoint only restores onto a device with the same
	// geometry and scheme. Tracing is excluded — it does not affect state.
	w.U32(uint32(d.opts.Shards))
	w.U64(d.opts.System.NVM.CapacityBytes)
	w.U8(uint8(d.opts.Mode))
	w.String(d.shards[0].ctrl.Strategy())
	// Device bookkeeping.
	w.U64(d.epoch.Load())
	w.Bool(d.down.Load())
	w.U64(d.nextID.Load())
	// Per-shard state, in shard order. The controller checkpoint is
	// length-prefixed so a corrupt inner payload fails cleanly.
	for _, s := range d.shards {
		w.Time(s.now)
		w.U64(s.execSeq)
		ckpt, err := s.ctrl.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("device: shard %d: %w", s.id, err)
		}
		w.Bytes(ckpt)
	}
	return sim.Seal(sim.SnapKindEngine, ckptVersion, w.Data()), nil
}

// shardStage holds one shard's decoded checkpoint before any state is
// mutated, so a corrupt snapshot is rejected without touching the device.
type shardStage struct {
	now  sim.Time
	seq  uint64
	ctrl []byte
}

// Restore replaces the device's entire state with a checkpoint taken from
// an identically configured device. On a decode or identity error the
// device is untouched; if a shard controller fails to restore after
// decoding succeeded, the device is poisoned and must be rebuilt.
func (d *Device) Restore(data []byte) error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	payload, err := sim.Open(sim.SnapKindEngine, ckptVersion, data)
	if err != nil {
		return err
	}
	r := sim.NewSnapR(payload)
	if n := int(r.U32()); r.Err() == nil && n != d.opts.Shards {
		return fmt.Errorf("device: checkpoint has %d shards, device has %d", n, d.opts.Shards)
	}
	if c := r.U64(); r.Err() == nil && c != d.opts.System.NVM.CapacityBytes {
		return fmt.Errorf("device: checkpoint capacity %d, device has %d", c, d.opts.System.NVM.CapacityBytes)
	}
	if m := r.U8(); r.Err() == nil && m != uint8(d.opts.Mode) {
		return fmt.Errorf("device: checkpoint mode %d, device has %d", m, uint8(d.opts.Mode))
	}
	if s := r.String(); r.Err() == nil && s != d.shards[0].ctrl.Strategy() {
		return fmt.Errorf("device: checkpoint strategy %q, device has %q", s, d.shards[0].ctrl.Strategy())
	}
	epoch := r.U64()
	down := r.Bool()
	nextID := r.U64()
	stages := make([]shardStage, d.opts.Shards)
	for i := range stages {
		st := &stages[i]
		st.now = r.Time()
		st.seq = r.U64()
		st.ctrl = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return err
	}
	// Decode succeeded; commit. Controller restores validate their own
	// identity and integrity before mutating, so the common failure modes
	// still leave the device untouched.
	d.lockShards()
	defer d.unlockShards()
	for i, s := range d.shards {
		if err := s.ctrl.Restore(stages[i].ctrl); err != nil {
			return fmt.Errorf("device: shard %d: %w", i, err)
		}
	}
	d.epoch.Store(epoch)
	d.down.Store(down)
	d.nextID.Store(nextID)
	for i, s := range d.shards {
		s.now = stages[i].now
		s.execSeq = stages[i].seq
		s.trace = nil
	}
	return nil
}
