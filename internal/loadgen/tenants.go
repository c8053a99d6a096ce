package loadgen

import (
	"fmt"
	"io"
	"sort"

	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/stats"
	"soteria/internal/tenant"
	"soteria/internal/workload"
)

// TenantConn is the connection surface the multi-tenant generator needs:
// a session it can bind to one tenant, learning the tenant's extent size
// in lines, after which Read and Write take tenant-local addresses and
// TenantRotate and TenantRotateStep drive that tenant's online key
// rotation. devnet.Client implements it over TCP, NewLocalTenantConn
// in-process.
type TenantConn interface {
	AttachTenant(id uint32, token uint64) (lines uint64, err error)
	Read(addr uint64) (nvm.Line, sim.Time, error)
	Write(addr uint64, data *nvm.Line) (sim.Time, error)
	TenantRotate(id uint32) error
	TenantRotateStep(id uint32, max uint32) (rotated uint32, done bool, err error)
	Close() error
}

// TenantSpec names one tenant stream: the tenant to attach. The stream
// walks the tenant's whole extent, whose size the attach reports.
type TenantSpec struct {
	ID    uint32
	Token uint64
}

// TenantParams configures one multi-tenant run.
type TenantParams struct {
	// Dial opens one connection per tenant stream (a connection is bound
	// to a single tenant at attach time).
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
	// finishes — measuring rotation cost under live load. It must be one
	// of Tenants: the rotation runs over that tenant's own session.
	RotateTenant uint32
	// RotateAt is the global completed-op count that triggers the
	// rotation. Default: half the budget.
	RotateAt int
	// RotateStride is the number of lines each interleaved sweep step
	// re-encrypts. Default 8.
	RotateStride int
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

// rotation is the online key rotation a tenant run interleaves with its
// streams, over the rotating tenant's own session: armed once enough ops
// have completed, then one sweep step between rounds until the sweep is
// done.
type rotation struct {
	conn    TenantConn
	at      uint64
	stride  uint32
	running bool
	res     RotationResult
}

func (r *rotation) arm(completed uint64) error {
	if r.running || r.res.Done || completed < r.at {
		return nil
	}
	if err := r.conn.TenantRotate(r.res.Tenant); err != nil {
		return fmt.Errorf("loadgen: rotate tenant %d: %w", r.res.Tenant, err)
	}
	r.running = true
	r.res.StartedAtOp = completed
	return nil
}

// step re-encrypts the next stride of lines and reports whether any moved.
func (r *rotation) step(completed uint64) (bool, error) {
	moved, done, err := r.conn.TenantRotateStep(r.res.Tenant, r.stride)
	if err != nil {
		return false, fmt.Errorf("loadgen: rotate step: %w", err)
	}
	r.res.Steps++
	r.res.Lines += uint64(moved)
	if done {
		r.running = false
		r.res.Done = true
		r.res.DoneAtOp = completed
	}
	return moved > 0, nil
}

// RunTenants executes one multi-tenant load run: one deterministic
// closed-loop stream per tenant, each on its own session, driven
// round-robin by a single goroutine (one op per visit — the
// interleaving, and with it the quota windows and per-shard sim clocks,
// is then fully reproducible for a fixed seed). A throttled op is
// retried on the stream's next visit, by which time the other tenants'
// admitted ops have advanced the quota window. Every read of a line the
// run itself wrote is verified against the content oracle, so the run
// doubles as an end-to-end isolation check: a key-domain mix-up surfaces
// as a verify failure, not a silent wrong answer.
func RunTenants(p TenantParams) (*TenantReport, error) {
	if len(p.Tenants) == 0 {
		return nil, fmt.Errorf("loadgen: no tenant streams")
	}
	if p.Ops <= 0 {
		p.Ops = 1000
	}
	wl, err := workload.ByName(p.Workload)
	if err != nil {
		return nil, err
	}

	var rot *rotation
	if p.RotateTenant != 0 {
		rot = &rotation{at: uint64(p.Ops / 2), stride: 8, res: RotationResult{Tenant: p.RotateTenant}}
		if p.RotateAt > 0 {
			rot.at = uint64(p.RotateAt)
		}
		if p.RotateStride > 0 {
			rot.stride = uint32(p.RotateStride)
		}
	}
	d := newDriver()
	n := len(p.Tenants)
	streams := make([]*stream, n)
	for i, spec := range p.Tenants {
		conn, err := p.Dial()
		if err != nil {
			return nil, fmt.Errorf("loadgen: tenant %d dial: %w", spec.ID, err)
		}
		defer conn.Close()
		lines, err := conn.AttachTenant(spec.ID, spec.Token)
		if err != nil {
			return nil, fmt.Errorf("loadgen: tenant %d attach: %w", spec.ID, err)
		}
		if rot != nil && spec.ID == rot.res.Tenant {
			rot.conn = conn
		}
		streams[i] = newStream(fmt.Sprintf("tenant %d", spec.ID), uint64(spec.ID), p.Seed,
			wl.New(lines*nvm.LineSize, p.Seed+int64(spec.ID)*0x9e37), p.Ops/n+btoi(i < p.Ops%n),
			lines, 1, 0)
		streams[i].target = &inline{c: conn, h: d.complete}
	}

	if rot != nil && rot.conn == nil {
		return nil, fmt.Errorf("loadgen: rotate tenant %d has no stream", p.RotateTenant)
	}
	if err := d.run(streams, rot); err != nil {
		return nil, err
	}

	rep := &TenantReport{Workload: wl.Name, Ops: p.Ops}
	if rot != nil {
		rep.Rotation = &rot.res
	}
	var all classHist
	var rates []float64
	for _, s := range streams {
		// A tenant's latency profile covers reads and writes alike.
		h := s.reads
		h.merge(&s.writes)
		res := TenantResult{
			ID:           uint32(s.key),
			Ops:          h.count,
			Reads:        s.reads.count,
			Writes:       s.writes.count,
			Throttled:    s.throttled,
			Latency:      h.summary(),
			SimBusyNanos: float64(s.simBusy) / 1e3,
		}
		if s.simBusy > 0 {
			res.RateOpsPerSimMs = float64(res.Ops) / (res.SimBusyNanos / 1e6)
		}
		rep.Per = append(rep.Per, res)
		rep.Barriers += s.barriers
		rep.Verified += s.verified
		all.merge(&h)
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

// localTenantConn adapts an in-process *tenant.Service to TenantConn:
// one value per tenant stream, bound by AttachTenant like a network
// connection. Close is a no-op: the caller owns the service.
type localTenantConn struct {
	svc   *tenant.Service
	bound uint32
}

// NewLocalTenantConn wraps a tenant service as a TenantConn, so the
// generator (and its tests) can drive it without a socket.
func NewLocalTenantConn(svc *tenant.Service) TenantConn { return &localTenantConn{svc: svc} }

func (c *localTenantConn) AttachTenant(id uint32, token uint64) (uint64, error) {
	lines, err := c.svc.Authenticate(id, token)
	if err == nil {
		c.bound = id
	}
	return lines, err
}

func (c *localTenantConn) Read(addr uint64) (nvm.Line, sim.Time, error) {
	return c.svc.Read(c.bound, addr)
}

func (c *localTenantConn) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	return c.svc.Write(c.bound, addr, data)
}

func (c *localTenantConn) TenantRotate(id uint32) error { return c.svc.Rotate(id) }

func (c *localTenantConn) TenantRotateStep(id uint32, max uint32) (uint32, bool, error) {
	rotated, done, err := c.svc.RotateStep(id, int(max))
	return uint32(rotated), done, err
}

func (c *localTenantConn) Close() error { return nil }
