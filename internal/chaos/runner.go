package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"soteria/internal/device"
	"soteria/internal/inject"
	"soteria/internal/nvm"
)

type opKind int

const (
	opWrite opKind = iota
	opRead
)

func (k opKind) String() string {
	if k == opWrite {
		return "write"
	}
	return "read"
}

type wop struct {
	kind opKind
	addr uint64
}

// genOps derives the deterministic workload for one seed: a working set big
// enough to thrash the TestSystem metadata cache, then ops drawn from it
// (roughly 3/4 writes, 1/4 reads). Every stack observes the identical
// stream for the same seed, which is what makes repro lines portable
// between them. The draw order is part of the repro contract; never
// reorder these calls.
func genOps(seed int64, writes int, dataLines uint64) []wop {
	rng := rand.New(rand.NewSource(seed))
	// Capped at the space itself: a tenant extent can be smaller than the
	// working set a long workload asks for.
	wsSize := min(writes/2+1, 96, int(dataLines))
	seen := make(map[uint64]bool, wsSize)
	ws := make([]uint64, 0, wsSize)
	for len(ws) < wsSize {
		blk := uint64(rng.Int63n(int64(dataLines)))
		if !seen[blk] {
			seen[blk] = true
			ws = append(ws, blk*nvm.LineSize)
		}
	}
	ops := make([]wop, writes)
	for i := range ops {
		k := opWrite
		if i > 0 && rng.Float64() < 0.25 {
			k = opRead
		}
		ops[i] = wop{kind: k, addr: ws[rng.Intn(len(ws))]}
	}
	return ops
}

// lineFor is the deterministic content of tenant t's i-th workload write
// (tenant 0 for a flat stack); the oracle recomputes it instead of
// remembering it (splitmix64 over seed, tenant and i).
func lineFor(seed int64, t uint32, i int) nvm.Line {
	var l nvm.Line
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(t)*0x94d049bb133111eb + uint64(i+1)*0xbf58476d1ce4e5b9
	for off := 0; off < nvm.LineSize; off += 8 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		for k := 0; k < 8; k++ {
			l[off+k] = byte(x >> (8 * uint(k)))
		}
	}
	return l
}

// guard runs f on a bare controller, converting an inject.PowerLoss panic
// into a *device.PowerError and any other panic into a *device.PanicError:
// the errors a device shard returns for the same two events, so the runner
// handles every stack alike. A simulated power cut must never surface as
// anything but PowerLoss.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(inject.PowerLoss); ok {
				err = &device.PowerError{Boundary: p.Boundary}
				return
			}
			err = &device.PanicError{Value: r}
		}
	}()
	return f()
}

// fatal names the two outcomes that end a run wherever they appear outside
// the armed workload: any panic, and a power loss once injection is off.
func fatal(err error) (string, bool) {
	var pe *device.PanicError
	switch {
	case errors.As(err, &pe):
		return fmt.Sprintf("unexpected panic: %v", pe.Value), true
	case errors.Is(err, device.ErrPowerLoss):
		return "power loss fired while disarmed", true
	}
	return "", false
}

func describe(err error) string {
	if msg, ok := fatal(err); ok {
		return msg
	}
	return err.Error()
}

func orNop(logf func(string, ...any)) func(string, ...any) {
	if logf == nil {
		return func(string, ...any) {}
	}
	return logf
}

// key names one line the oracle tracks: a tenant-local address, or with
// tenant 0 an address in a controller's or device's flat space.
type key struct {
	tenant uint32
	addr   uint64
}

func (k key) String() string {
	if k.tenant == 0 {
		return fmt.Sprintf("%#x", k.addr)
	}
	return fmt.Sprintf("tenant %d %#x", k.tenant, k.addr)
}

// stack is one system under test — a bare controller, the sharded device,
// the tenant service over it, or that device served over TCP — as the
// scenario runner drives it. Whatever the stack, a power loss surfaces as
// a *device.PowerError and any other panic as a *device.PanicError.
type stack interface {
	// op starts workload op i — a write of line to k, or a read of k when
	// line is nil — and reports its outcome through sc.done: inline, or
	// for a pipelined stack from a later op or wait.
	op(i int, k key, line *nvm.Line)
	// wait returns once every op started so far has reported its outcome.
	wait()
	read(k key) (nvm.Line, error)
	// boundaries counts the write boundaries crossed so far.
	boundaries() int
	// disarm ends crash and fault injection on a run that did not crash.
	disarm()
	crash() error
	// recover brings the crashed stack back, ending injection after a
	// power loss, and reports per shard.
	recover() (*device.RecoveryReport, error)
	// flush settles the stack: nothing volatile is left unwritten.
	flush() error
	verify() error
	// extraChecks runs the stack's own invariants after each read-back.
	extraChecks(phase string)
}

// scenario is one run in progress: a stack, the deterministic workload it
// executes, and the acknowledged-write oracle over it.
type scenario struct {
	stack   stack
	seed    int64
	ops     []wop
	tenants int  // op i belongs to tenant 1+i%tenants; 0: one flat space
	shards  int  // recovery reports owed; more than one names each shard
	errOK   bool // typed op and read errors are legal (device faults, sabotaged recovery)
	lossOK  bool // recovery may report lost blocks (device faults)
	logf    func(format string, args ...any)

	res         *DeviceResult
	committed   map[key]int // line -> op index of its last acknowledged write
	inFlight    int         // op index of the write the power loss cut, or -1
	inFlightKey key
	crashOp     int
	settled     []bool // op i was acknowledged, or failed before the power loss
	replayFrom  int    // lowest op the power loss left unacknowledged
	cut         bool   // the power loss was seen and recovery has not run yet
	stopped     bool   // a fatal outcome ended the run
	what        string // "op", or "replay op" once recovery ran
}

func newScenario(s stack, seed int64, ops []wop, shards int, logf func(string, ...any)) *scenario {
	return &scenario{
		stack: s, seed: seed, ops: ops, shards: shards, logf: orNop(logf),
		res:        &DeviceResult{CrashBoundary: -1, CrashShard: -1},
		committed:  make(map[key]int),
		inFlight:   -1,
		crashOp:    -1,
		settled:    make([]bool, len(ops)),
		replayFrom: len(ops),
		what:       "op",
	}
}

func (sc *scenario) key(i int) key {
	k := key{addr: sc.ops[i].addr}
	if sc.tenants > 0 {
		k.tenant = uint32(1 + i%sc.tenants)
	}
	return k
}

func (sc *scenario) exec(i int) {
	k := sc.key(i)
	if sc.ops[i].kind == opRead {
		sc.stack.op(i, k, nil)
		return
	}
	line := lineFor(sc.seed, k.tenant, i)
	sc.stack.op(i, k, &line)
}

// halt records a violation that leaves the run unable to go on.
func (sc *scenario) halt(format string, args ...any) {
	sc.res.violate(format, args...)
	sc.stopped = true
}

// done accounts for the outcome of op i, got being what a read returned.
// Stacks report every op they start exactly once, in the order outcomes
// arrive: a pipelined stack may acknowledge an op numbered after the
// power-loss op, or fail one numbered before it. So every acknowledged op
// commits, the power-loss op alone may read back old or new, and any other
// error between the power loss and recovery means "not applied": replay
// starts at the lowest such op.
func (sc *scenario) done(i int, got nvm.Line, err error) {
	if sc.stopped {
		return
	}
	k, res := sc.key(i), sc.res
	var pe *device.PowerError
	if sc.crashOp < 0 && errors.As(err, &pe) {
		res.Crashed, res.CrashBoundary, res.CrashShard = true, pe.Boundary, pe.Shard
		sc.crashOp, sc.cut = i, true
		sc.replayFrom = min(sc.replayFrom, i)
		if sc.ops[i].kind == opWrite {
			sc.inFlight, sc.inFlightKey = i, k
		}
		return
	}
	if msg, ok := fatal(err); ok {
		sc.halt("%s %d (%v %v): %s", sc.what, i, sc.ops[i].kind, k, msg)
		return
	}
	if sc.cut && err != nil {
		sc.replayFrom = min(sc.replayFrom, i)
		return
	}
	sc.settled[i] = true
	switch c, ok := sc.committed[k]; {
	case err != nil:
		res.OpErrors++
		if !sc.errOK {
			res.violate("%s %d (%v %v): unexpected error: %v", sc.what, i, sc.ops[i].kind, k, err)
		}
	case sc.ops[i].kind == opWrite:
		sc.committed[k] = i
	case ok && got != lineFor(sc.seed, k.tenant, c):
		res.violate("%s %d (read %v): stale or corrupt read: committed op %d does not read back", sc.what, i, k, c)
	}
}

// run drives the workload to its end or to the power loss, then recovery
// and the oracle: the report checks, a read-back in which the one
// in-flight write may hold its old or its new value, replay of what the
// power loss left unacknowledged, flush and VerifyAll, a clean
// crash/recover round, and a final strict read-back.
func (sc *scenario) run() *DeviceResult {
	s, res := sc.stack, sc.res
	for i := 0; i < len(sc.ops) && sc.crashOp < 0 && !sc.stopped; i++ {
		sc.exec(i)
	}
	s.wait()
	if sc.stopped {
		return res
	}
	res.Boundaries = s.boundaries()

	if res.Crashed {
		sc.logf("power loss at boundary %d (op %d, shard %d)", res.CrashBoundary, sc.crashOp, res.CrashShard)
		if err := s.crash(); err != nil {
			res.violate("Crash() after power loss: %v", err)
			return res
		}
		rep, err := s.recover()
		if err != nil {
			res.violate("Recover failed: %s", describe(err))
			return res
		}
		res.Report = rep
		sc.checkReport(rep)
		sc.readCheck("post-recovery", true)
		s.extraChecks("post-recovery")
		// Replay what the power loss left unacknowledged, disarmed.
		sc.cut, sc.what = false, "replay op"
		for i := sc.replayFrom; i < len(sc.ops) && !sc.stopped; i++ {
			if !sc.settled[i] {
				sc.exec(i)
			}
		}
		s.wait()
		if sc.stopped {
			return res
		}
	} else {
		s.disarm()
		sc.readCheck("post-workload", false)
		s.extraChecks("post-workload")
	}

	if err := s.flush(); err != nil {
		res.violate("Flush: %s", describe(err))
		return res
	}
	if err := s.verify(); err != nil && !sc.errOK {
		res.violate("VerifyAll after replay: %v", err)
	}
	// A clean crash/recover round-trip on the flushed image must be
	// lossless regardless of what came before (faults excepted).
	if err := s.crash(); err != nil {
		res.violate("clean-round Crash: %v", err)
	} else if rep, err := s.recover(); err != nil {
		res.violate("clean-round Recover: %s", describe(err))
	} else if !sc.lossOK && !rep.Clean() {
		res.violate("clean-round recovery lost blocks: %d failed, %d lost slots", rep.FailedBlocks(), rep.LostSlots())
	}
	sc.readCheck("final", false)
	s.extraChecks("final")
	return res
}

// checkReport enforces the accounting of the power-loss recovery: a report
// for every shard, never more reconstructed than tracked, and — unless
// device faults were injected — nothing lost. Under a sabotaged recovery
// these firing is the harness catching it.
func (sc *scenario) checkReport(rep *device.RecoveryReport) {
	res := sc.res
	if len(rep.Shards) != sc.shards {
		res.violate("recovery report covers %d of %d shards", len(rep.Shards), sc.shards)
	}
	for sid, sr := range rep.Shards {
		where := ""
		if sc.shards > 1 {
			where = fmt.Sprintf("shard %d: ", sid)
		}
		if sr == nil {
			res.violate("%srecovery report missing", where)
			continue
		}
		if sr.RecoveredBlocks+len(sr.FailedBlocks) > sr.TrackedEntries {
			res.violate("%srecovery report accounting: %d recovered + %d failed > %d tracked",
				where, sr.RecoveredBlocks, len(sr.FailedBlocks), sr.TrackedEntries)
		}
		if sc.lossOK {
			continue
		}
		for _, fb := range sr.FailedBlocks {
			res.violate("%srecovery lost tracked block %#x: %s", where, fb.Addr, fb.Reason)
		}
		for _, s := range sr.LostSlots {
			res.violate("%srecovery lost shadow slot %d entirely", where, s)
		}
	}
}

// readCheck verifies every acknowledged write reads back exactly. With
// inFlightExempt the one write the power loss interrupted may hold its old
// or its new value, and on a never-written line zero or the new value.
func (sc *scenario) readCheck(phase string, inFlightExempt bool) {
	res := sc.res
	keys := make([]key, 0, len(sc.committed))
	for k := range sc.committed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].addr < keys[j].addr
	})
	exempt := inFlightExempt && sc.inFlight >= 0
	for _, k := range keys {
		got, err := sc.stack.read(k)
		if msg, ok := fatal(err); ok {
			res.violate("%s: read %v: %s", phase, k, msg)
			return
		}
		if err != nil {
			if !sc.errOK {
				res.violate("%s: read %v (committed op %d) failed: %v", phase, k, sc.committed[k], err)
			}
			continue
		}
		want := lineFor(sc.seed, k.tenant, sc.committed[k])
		if exempt && k == sc.inFlightKey {
			if got != want && got != lineFor(sc.seed, k.tenant, sc.inFlight) {
				res.violate("%s: in-flight block %v holds neither the old value (op %d) nor the new (op %d)",
					phase, k, sc.committed[k], sc.inFlight)
			}
			continue
		}
		if got != want {
			res.violate("%s: silent corruption at %v: committed op %d does not read back", phase, k, sc.committed[k])
		}
	}
	if _, ok := sc.committed[sc.inFlightKey]; !exempt || ok {
		return
	}
	k := sc.inFlightKey
	got, err := sc.stack.read(k)
	msg, isFatal := fatal(err)
	switch {
	case isFatal:
		res.violate("%s: read in-flight %v: %s", phase, k, msg)
	case err != nil:
		if !sc.errOK {
			res.violate("%s: read in-flight %v failed: %v", phase, k, err)
		}
	case got != (nvm.Line{}) && got != lineFor(sc.seed, k.tenant, sc.inFlight):
		res.violate("%s: in-flight cold block %v is neither zero nor the new value", phase, k)
	}
}

// point is what the sweep loop keeps of one run.
type point struct {
	boundaries int // of the phase being swept
	crashed    bool
	repro      string
	violations []string
}

// sweep is the one crash-point sweep: at(-1) runs the crash-free probe
// whose boundary count sizes the sweep, then at(k) crashes at every
// stride-th boundary. header is logged with that count and the stride.
func sweep(header string, stride int, logf func(string, ...any), at func(k int) (point, error)) (*CampaignResult, error) {
	if stride <= 0 {
		stride = 1
	}
	logf = orNop(logf)
	probe, err := at(-1)
	if err != nil {
		return nil, err
	}
	out := &CampaignResult{Boundaries: probe.boundaries}
	out.collect(probe.repro, probe.violations)
	logf(header, probe.boundaries, stride)
	for k := 0; k < probe.boundaries; k += stride {
		p, err := at(k)
		if err != nil {
			return nil, err
		}
		if !p.crashed {
			logf("note: crash-at %d never fired (run saw %d boundaries)", k, p.boundaries)
		}
		out.collect(p.repro, p.violations)
	}
	return out, nil
}
