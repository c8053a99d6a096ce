package loadgen

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"soteria/internal/device"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/stats"
	"soteria/internal/tenant"
	"soteria/internal/trace"
	"soteria/internal/workload"
)

// TenantConn is the slice of the connection surface the multi-tenant
// generator needs: a connection it can bind to one tenant, after which
// the Read and Write it shares with Conn take tenant-local addresses.
// devnet.Client implements it over TCP, LocalTenantConn in-process for
// tests and experiments.
type TenantConn interface {
	AttachTenant(id uint32, token uint64) error
	Read(addr uint64) (nvm.Line, sim.Time, error)
	Write(addr uint64, data *nvm.Line) (sim.Time, error)
	Close() error
}

// TenantAdmin is the operator-plane slice used to drive an online key
// rotation while the data streams run. devnet.Client and LocalTenantConn
// both implement it.
type TenantAdmin interface {
	TenantRotate(id uint32) error
	TenantRotateStep(id uint32, max uint32) (rotated uint32, cursor uint64, done bool, err error)
}

// TenantSpec names one tenant stream: the tenant to attach and the
// extent the stream walks.
type TenantSpec struct {
	ID    uint32
	Token uint64
	// Lines is the tenant's extent size in 64-byte lines (the stream's
	// footprint).
	Lines uint64
}

// TenantParams configures one multi-tenant run.
type TenantParams struct {
	// Dial opens one connection; called once per tenant, because a
	// connection is bound to a single tenant at attach time.
	Dial func() (TenantConn, error)
	// Tenants lists the streams. Each must already be provisioned.
	Tenants []TenantSpec
	// Ops is the total operation budget, split across tenants as evenly
	// as possible (tenant i gets the i-th residue). Default 1000.
	Ops int
	// Seed drives every per-tenant stream.
	Seed int64
	// Workload names the internal/workload pattern each stream replays.
	Workload string
	// RotateTenant, when non-zero, kicks an online key rotation for that
	// tenant once RotateAt operations have completed, then interleaves
	// RotateStride-line sweep steps with the data streams until it
	// finishes — measuring rotation cost under live load.
	RotateTenant uint32
	// RotateAt is the global completed-op count that triggers the
	// rotation. Default: half the budget.
	RotateAt int
	// RotateStride is the number of lines each interleaved sweep step
	// re-encrypts. Default 8.
	RotateStride int
	// Admin drives the rotation; required when RotateTenant is set.
	Admin TenantAdmin
	// Logf, when non-nil, receives progress lines (stderr material).
	Logf func(format string, args ...any)
}

// TenantResult is one tenant stream's outcome.
type TenantResult struct {
	ID        uint32
	Ops       uint64 // completed reads + writes
	Reads     uint64
	Writes    uint64
	Throttled uint64 // fair-share BusyError rejections absorbed
	Latency   LatencySummary
	// SimBusyNanos is the stream's total simulated service time.
	SimBusyNanos float64
	// RateOpsPerSimMs is the stream's achieved rate over its own
	// simulated busy time — the quantity the fairness index compares.
	RateOpsPerSimMs float64
}

// RotationResult describes the online rotation a run drove.
type RotationResult struct {
	Tenant uint32
	// StartedAtOp / DoneAtOp are global completed-op counts.
	StartedAtOp uint64
	DoneAtOp    uint64
	Steps       uint64
	Lines       uint64
	Done        bool
}

// TenantReport is the deterministic outcome of a multi-tenant run.
type TenantReport struct {
	Workload string
	Ops      int
	Barriers uint64
	Per      []TenantResult
	// All aggregates every tenant's operation latencies.
	All LatencySummary
	// Fairness is Jain's index over the per-tenant achieved rates:
	// 1.0 means perfectly even service, 1/n means one tenant got
	// everything.
	Fairness float64
	Rotation *RotationResult
	// Verified counts reads checked against the content oracle (every
	// read of a line the run itself wrote).
	Verified uint64
}

// tenantStream is one tenant's deterministic request stream plus the
// stats it accumulates. The single driver goroutine owns all of them.
type tenantStream struct {
	spec      TenantSpec
	conn      TenantConn
	remaining int
	gen       trace.Generator
	// pending holds an op a fair-share throttle bounced, replayed on the
	// next round-robin visit (the generator has no pushback).
	pending  *trace.Record
	seed     int64
	writeIdx int
	// committed is the content oracle: line -> index of the last write
	// the server acknowledged, so every later read can be verified.
	committed map[uint64]int
	hist      classHist
	reads     uint64
	writes    uint64
	barriers  uint64
	throttled uint64
	verified  uint64
	simBusy   uint64 // ps
}

// lineContent derives the deterministic payload of this tenant's i-th
// write (splitmix64, same family as the chaos harness's oracle).
func (s *tenantStream) lineContent(i int) nvm.Line {
	var l nvm.Line
	x := uint64(s.seed)*0x9e3779b97f4a7c15 + uint64(s.spec.ID)*0x94d049bb133111eb + uint64(i+1)*0xbf58476d1ce4e5b9
	for off := 0; off < nvm.LineSize; off += 8 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		for k := 0; k < 8; k++ {
			l[off+k] = byte(x >> (8 * uint(k)))
		}
	}
	return l
}

// step executes the stream's next operation. It returns (progress,
// error): a fair-share throttle leaves the op pending (progress=false)
// so the driver retries it on the next round-robin visit, by which time
// the other tenants' admitted ops have advanced the quota window.
func (s *tenantStream) step() (bool, error) {
	var rec trace.Record
	if s.pending != nil {
		rec, s.pending = *s.pending, nil
	} else if !s.gen.Next(&rec) {
		s.remaining = 0
		return true, nil
	}
	line := (rec.Addr / nvm.LineSize) % s.spec.Lines
	addr := line * nvm.LineSize
	switch rec.Op {
	case trace.OpRead:
		data, lat, err := s.conn.Read(addr)
		if busy(err) {
			s.throttled++
			s.pending = &rec
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("tenant %d read %#x: %w", s.spec.ID, addr, err)
		}
		if idx, ok := s.committed[line]; ok {
			if want := s.lineContent(idx); data != want {
				return false, fmt.Errorf("tenant %d line %#x: read returned stale or foreign content (want write %d)", s.spec.ID, addr, idx)
			}
			s.verified++
		}
		s.hist.observe(lat)
		s.reads++
		s.simBusy += uint64(lat)
	case trace.OpWrite, trace.OpWritePersist:
		content := s.lineContent(s.writeIdx)
		lat, err := s.conn.Write(addr, &content)
		if busy(err) {
			s.throttled++
			s.pending = &rec
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("tenant %d write %#x: %w", s.spec.ID, addr, err)
		}
		s.committed[line] = s.writeIdx
		s.writeIdx++
		s.hist.observe(lat)
		s.writes++
		s.simBusy += uint64(lat)
	case trace.OpBarrier:
		// Every acknowledged tenant write is already durable, so a
		// barrier is a no-op (over the wire a drain entry on a bound
		// connection acknowledges for the same reason).
		s.barriers++
	}
	s.remaining--
	return true, nil
}

// busy reports whether err is the retryable fair-share (or queue-full)
// backpressure signal. Quota errors are deliberately NOT matched: a hard
// budget does not refill by retrying, so they abort the stream.
func busy(err error) bool {
	var be *device.BusyError
	return errors.As(err, &be)
}

// RunTenants executes one multi-tenant load run: one deterministic
// closed-loop stream per tenant, driven round-robin by a single
// goroutine (one op per visit — the interleaving, and with it the quota
// windows and per-shard sim clocks, is then fully reproducible for a
// fixed seed). Every read of a line the run itself wrote is verified
// against the deterministic content oracle, so the run doubles as an
// end-to-end isolation check: a key-domain mix-up surfaces as a verify
// failure, not a silent wrong answer.
func RunTenants(p TenantParams) (*TenantReport, error) {
	if len(p.Tenants) == 0 {
		return nil, fmt.Errorf("loadgen: no tenant streams")
	}
	if p.Ops <= 0 {
		p.Ops = 1000
	}
	if p.RotateTenant != 0 {
		if p.Admin == nil {
			return nil, fmt.Errorf("loadgen: RotateTenant set but no Admin connection")
		}
		if p.RotateAt <= 0 {
			p.RotateAt = p.Ops / 2
		}
		if p.RotateStride <= 0 {
			p.RotateStride = 8
		}
	}
	logf := p.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	wl, err := workload.ByName(p.Workload)
	if err != nil {
		return nil, err
	}

	n := len(p.Tenants)
	streams := make([]*tenantStream, n)
	for i, spec := range p.Tenants {
		if spec.Lines == 0 {
			return nil, fmt.Errorf("loadgen: tenant %d has a zero-line extent", spec.ID)
		}
		conn, err := p.Dial()
		if err != nil {
			return nil, fmt.Errorf("loadgen: tenant %d dial: %w", spec.ID, err)
		}
		defer conn.Close()
		if err := conn.AttachTenant(spec.ID, spec.Token); err != nil {
			return nil, fmt.Errorf("loadgen: tenant %d attach: %w", spec.ID, err)
		}
		streams[i] = &tenantStream{
			spec:      spec,
			conn:      conn,
			remaining: p.Ops/n + btoi(i < p.Ops%n),
			gen:       wl.New(spec.Lines*nvm.LineSize, p.Seed+int64(spec.ID)*0x9e37),
			seed:      p.Seed,
			committed: map[uint64]int{},
		}
	}
	logf("loadgen: %s over %d tenants, %d ops", wl.Name, n, p.Ops)

	rot := &RotationResult{Tenant: p.RotateTenant}
	var completed uint64
	rotating := false
	for {
		live, progressed := 0, false
		for _, s := range streams {
			if s.remaining <= 0 {
				continue
			}
			live++
			ok, err := s.step()
			if err != nil {
				return nil, err
			}
			if ok {
				progressed = true
				completed++
			}
			if p.RotateTenant != 0 && !rotating && !rot.Done && completed >= uint64(p.RotateAt) {
				if err := p.Admin.TenantRotate(p.RotateTenant); err != nil {
					return nil, fmt.Errorf("loadgen: rotate tenant %d: %w", p.RotateTenant, err)
				}
				rotating = true
				rot.StartedAtOp = completed
				logf("loadgen: rotation of tenant %d armed at op %d", p.RotateTenant, completed)
			}
		}
		if rotating {
			moved, _, done, err := p.Admin.TenantRotateStep(p.RotateTenant, uint32(p.RotateStride))
			if err != nil {
				return nil, fmt.Errorf("loadgen: rotate step: %w", err)
			}
			rot.Steps++
			rot.Lines += uint64(moved)
			progressed = progressed || moved > 0
			if done {
				rotating = false
				rot.Done = true
				rot.DoneAtOp = completed
				logf("loadgen: rotation done at op %d (%d lines in %d steps)", completed, rot.Lines, rot.Steps)
			}
		}
		if live == 0 && !rotating {
			break
		}
		if live > 0 && !progressed {
			// Every live stream was throttled and nothing advanced the
			// service's op clock, so no retry can ever succeed.
			return nil, fmt.Errorf("loadgen: fair-share livelock: %d streams throttled with no admitted ops to roll the quota window", live)
		}
	}

	rep := &TenantReport{Workload: wl.Name, Ops: p.Ops}
	if p.RotateTenant != 0 {
		rep.Rotation = rot
	}
	var all classHist
	var rates []float64
	for _, s := range streams {
		res := TenantResult{
			ID:           s.spec.ID,
			Ops:          s.reads + s.writes,
			Reads:        s.reads,
			Writes:       s.writes,
			Throttled:    s.throttled,
			Latency:      s.hist.summary(),
			SimBusyNanos: float64(s.simBusy) / 1e3,
		}
		if s.simBusy > 0 {
			res.RateOpsPerSimMs = float64(res.Ops) / (res.SimBusyNanos / 1e6)
		}
		rep.Per = append(rep.Per, res)
		rep.Barriers += s.barriers
		rep.Verified += s.verified
		all.merge(&s.hist)
		rates = append(rates, res.RateOpsPerSimMs)
	}
	sort.Slice(rep.Per, func(i, j int) bool { return rep.Per[i].ID < rep.Per[j].ID })
	rep.All = all.summary()
	rep.Fairness = jain(rates)
	return rep, nil
}

// jain computes Jain's fairness index (sum x)^2 / (n * sum x^2) over the
// per-tenant rates: 1.0 when all rates are equal, 1/n at total
// starvation of all but one.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// WriteMarkdown renders the report as deterministic machine-parsable
// tables.
func (r *TenantReport) WriteMarkdown(w io.Writer) error {
	t := stats.NewTable(
		fmt.Sprintf("loadgen: %s — %d ops, %d tenants", r.Workload, r.Ops, len(r.Per)),
		"tenant", "ops", "reads", "writes", "throttled",
		"mean (ns)", "p50 (ns)", "p99 (ns)", "ops per sim-ms")
	for _, p := range r.Per {
		t.AddRow(p.ID, p.Ops, p.Reads, p.Writes, p.Throttled,
			stats.FormatFloat(p.Latency.MeanSimNanos), stats.FormatFloat(p.Latency.P50),
			stats.FormatFloat(p.Latency.P99), stats.FormatFloat(p.RateOpsPerSimMs))
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	ts := stats.NewTable("multi-tenant summary", "metric", "value")
	ts.AddRow("fairness (Jain)", stats.FormatFloat(r.Fairness))
	ts.AddRow("all-ops p50 (ns)", stats.FormatFloat(r.All.P50))
	ts.AddRow("all-ops p99 (ns)", stats.FormatFloat(r.All.P99))
	ts.AddRow("reads verified", r.Verified)
	ts.AddRow("barriers", r.Barriers)
	if rot := r.Rotation; rot != nil {
		ts.AddRow("rotation tenant", rot.Tenant)
		ts.AddRow("rotation lines", rot.Lines)
		ts.AddRow("rotation steps", rot.Steps)
		ts.AddRow("rotation started at op", rot.StartedAtOp)
		ts.AddRow("rotation done at op", rot.DoneAtOp)
	}
	return ts.WriteMarkdown(w)
}

// LocalTenantConn adapts an in-process *tenant.Service to TenantConn and
// TenantAdmin, so the generator (and its tests) can drive a tenant
// service without a socket: one value per tenant stream, bound by
// AttachTenant like a network connection. Close is a no-op: the caller
// owns the service.
type LocalTenantConn struct {
	svc   *tenant.Service
	bound uint32
}

// NewLocalTenantConn wraps a tenant service.
func NewLocalTenantConn(svc *tenant.Service) *LocalTenantConn {
	return &LocalTenantConn{svc: svc}
}

// AttachTenant implements TenantConn.
func (c *LocalTenantConn) AttachTenant(id uint32, token uint64) error {
	if err := c.svc.Authenticate(id, token); err != nil {
		return err
	}
	c.bound = id
	return nil
}

// Read implements TenantConn.
func (c *LocalTenantConn) Read(addr uint64) (nvm.Line, sim.Time, error) {
	return c.svc.Read(c.bound, addr)
}

// Write implements TenantConn.
func (c *LocalTenantConn) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	return c.svc.Write(c.bound, addr, data)
}

// TenantRotate implements TenantAdmin.
func (c *LocalTenantConn) TenantRotate(id uint32) error { return c.svc.Rotate(id) }

// TenantRotateStep implements TenantAdmin, mirroring the server
// handler's shape: ErrNotRotating means the sweep already finished.
func (c *LocalTenantConn) TenantRotateStep(id uint32, max uint32) (uint32, uint64, bool, error) {
	rotated, done, err := c.svc.RotateStep(id, int(max))
	if err != nil && !errors.Is(err, tenant.ErrNotRotating) {
		return 0, 0, false, err
	}
	st, err := c.svc.RotateStatus(id)
	if err != nil {
		return 0, 0, false, err
	}
	return uint32(rotated), st.Cursor, done || !st.Rotating, nil
}

// Close implements TenantConn; the service stays up.
func (c *LocalTenantConn) Close() error { return nil }
