package chaos

import (
	"bytes"
	"fmt"

	"soteria/internal/device"
	"soteria/internal/memctrl"
)

// CheckpointRun proves restore-then-recover is indistinguishable from
// straight-line recover for one crash point. It drives cfg's workload on
// controller A to the crash (or to completion when CrashAt is negative),
// serializes A with Checkpoint, restores the bytes into a fresh twin B,
// and then demands:
//
//   - B's re-checkpoint is byte-identical to A's (golden round-trip);
//   - A.Recover() and B.Recover() report identical accounting;
//   - A and B are byte-identical again after both recoveries;
//   - B, carrying the run on, passes the runner's full oracle.
//
// Faults and nested crashes stay on Run; this leg is about checkpoint
// fidelity, so the scenario is crash-only.
func CheckpointRun(cfg Config) (*Result, error) {
	if cfg.FaultRate > 0 || cfg.ShadowFaults > 0 || cfg.BreakHalfRepair || cfg.NestedCrashAt >= 0 {
		return nil, fmt.Errorf("chaos: CheckpointRun is crash-only (no faults, no nested crash)")
	}
	sc, c, err := newCtrlScenario(cfg)
	if err != nil {
		return nil, err
	}
	sc.stack = &twinStack{ctrlStack: c}
	res, _ := sc.run(0)
	return c.result(res), nil
}

// twinStack is the controller adapter with one difference: the recovery
// after the power loss — or, on a crash-free run, the end of the workload —
// hands the run over to a twin restored from the controller's checkpoint.
type twinStack struct {
	*ctrlStack
	a *memctrl.Controller // the original, once the twin has taken over
}

// handover checkpoints the controller, restores the bytes into a fresh
// twin, and carries on with the twin.
func (t *twinStack) handover() error {
	ckpt, err := t.ctrl.Checkpoint()
	if err != nil {
		return fmt.Errorf("Checkpoint of controller A: %w", err)
	}
	b, err := newCtrl(t.cfg)
	if err != nil {
		return err
	}
	if err := b.Restore(ckpt); err != nil {
		return fmt.Errorf("Restore into fresh controller: %w", err)
	}
	again, err := b.Checkpoint()
	if err != nil {
		return fmt.Errorf("re-Checkpoint of restored controller: %w", err)
	}
	if !bytes.Equal(ckpt, again) {
		t.sc.res.violate("restored controller re-checkpoints differently (%d vs %d bytes)", len(ckpt), len(again))
	}
	t.a, t.ctrl, t.now = t.ctrl, b, 0
	return nil
}

func (t *twinStack) disarm() {
	t.ctrlStack.disarm()
	if err := t.handover(); err != nil {
		t.sc.res.violate("%v", err)
	}
}

func (t *twinStack) recover() (*device.RecoveryReport, error) {
	if t.a != nil {
		return t.ctrlStack.recover()
	}
	t.inj.Disarm()
	if err := t.handover(); err != nil {
		return nil, err
	}
	// Straight-line recover on A, restore-then-recover on B: the two
	// reports and the two post-recovery checkpoints must agree.
	repA, errA := recoverCtrl(t.a)
	repB, errB := recoverCtrl(t.ctrl)
	if (errA == nil) != (errB == nil) {
		return nil, fmt.Errorf("recover outcomes diverge: A err %v, B err %v", errA, errB)
	}
	if errA != nil {
		return nil, errA
	}
	if a, b := accounting(repA.Shards[0]), accounting(repB.Shards[0]); a != b {
		t.sc.res.violate("recovery reports diverge: A %s, B %s", a, b)
	}
	ckptA, errA := t.a.Checkpoint()
	ckptB, errB := t.ctrl.Checkpoint()
	switch {
	case errA != nil || errB != nil:
		t.sc.res.violate("post-recovery checkpoints: A err %v, B err %v", errA, errB)
	case !bytes.Equal(ckptA, ckptB):
		t.sc.res.violate("post-recovery states diverge: straight-line recover and restore-then-recover checkpoint differently")
	}
	return repB, nil
}

// CheckpointSweep runs CheckpointRun at every stride-th crash boundary
// (plus a crash-free probe, which exercises checkpoint-at-rest). It is the
// fourth leg of the conformance suite: every strategy must prove that
// restoring a checkpoint of a crashed controller and recovering is
// indistinguishable from recovering in place, at every crash point.
func CheckpointSweep(base Config, stride int, logf func(string, ...any)) (*CampaignResult, error) {
	return ctrlSweep("checkpoint sweep: %d workload boundaries, stride %d", CheckpointRun, base, stride, logf)
}
