package experiments

import (
	"fmt"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/loadgen"
	"soteria/internal/memctrl"
	"soteria/internal/stats"
	"soteria/internal/tenant"
)

// TenantExpParams scales the multi-tenant service experiments: throughput
// and latency under tenant contention, fairness of the admission
// throttle, and the cost of an online key rotation under live load. All
// runs are in-process (loadgen.RunTenants over NewLocalTenantConn
// sessions) and driven by loadgen's one stream loop from a single
// goroutine, so every number derives from the simulated clocks, the
// tables are deterministic for a fixed seed, and every read of a line a
// run wrote is checked against loadgen's content oracle.
type TenantExpParams struct {
	// Ops is the total operation budget per run, split evenly across the
	// run's tenants.
	Ops int
	// Lines is each tenant's extent size in 64-byte lines.
	Lines uint64
	// Seed drives every stream.
	Seed int64
	// Workload names the internal/workload pattern each stream replays.
	Workload string
	// TenantCounts is the contention sweep (one run per count).
	TenantCounts []int
	// Shards configures the underlying device.
	Shards int
	// RotateStride is the lines-per-step granularity of the interleaved
	// rotation sweep.
	RotateStride int
}

// DefaultTenantExpParams returns the scale used by cmd/experiments.
func DefaultTenantExpParams() TenantExpParams {
	return TenantExpParams{
		Ops:          20_000,
		Lines:        128,
		Seed:         1,
		Workload:     "hashmap",
		TenantCounts: []int{1, 2, 4, 8, 16},
		Shards:       4,
		RotateStride: 8,
	}
}

func (p TenantExpParams) fill() TenantExpParams {
	d := DefaultTenantExpParams()
	if p.Ops <= 0 {
		p.Ops = d.Ops
	}
	if p.Lines == 0 {
		p.Lines = d.Lines
	}
	if p.Workload == "" {
		p.Workload = d.Workload
	}
	if len(p.TenantCounts) == 0 {
		p.TenantCounts = d.TenantCounts
	}
	if p.Shards <= 0 {
		p.Shards = d.Shards
	}
	if p.RotateStride <= 0 {
		p.RotateStride = d.RotateStride
	}
	return p
}

// tenantRun provisions n tenants on a fresh device and
// runs one multi-tenant load run, optionally with a rotation armed.
func tenantRun(p TenantExpParams, n int, rotate uint32, rotateAt int) (*loadgen.TenantReport, error) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSAC,
		Key:    []byte("experiments-tenant-device-key"),
		Shards: p.Shards,
	})
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte("experiments-tenant-master")})
	if err != nil {
		return nil, err
	}
	specs := make([]loadgen.TenantSpec, n)
	for i := range specs {
		id := uint32(i + 1)
		token, err := svc.Provision(id, p.Lines, 0)
		if err != nil {
			return nil, fmt.Errorf("provision tenant %d: %w", id, err)
		}
		specs[i] = loadgen.TenantSpec{ID: id, Token: token, Lines: p.Lines}
	}
	return loadgen.RunTenants(loadgen.TenantParams{
		Dial:         func() (loadgen.TenantConn, error) { return loadgen.NewLocalTenantConn(svc), nil },
		Tenants:      specs,
		Ops:          p.Ops,
		Seed:         p.Seed,
		Workload:     p.Workload,
		RotateTenant: rotate,
		RotateAt:     rotateAt,
		RotateStride: p.RotateStride,
	})
}

// TenantContention sweeps the tenant count at a fixed total op budget:
// per-tenant key domains and guard metadata make every operation more
// expensive than the flat device, and the fair-share throttle keeps the
// service evenly divided — the fairness column is Jain's index over the
// per-tenant achieved rates.
func TenantContention(p TenantExpParams) (*stats.Table, error) {
	p = p.fill()
	t := stats.NewTable(
		fmt.Sprintf("Multi-tenant contention — %s, %d ops total, %d-line extents",
			p.Workload, p.Ops, p.Lines),
		"tenants", "ops done", "throttled", "mean (ns)", "p50 (ns)", "p99 (ns)",
		"per-tenant ops/sim-ms", "fairness (Jain)")
	for _, n := range p.TenantCounts {
		rep, err := tenantRun(p, n, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("tenants=%d: %w", n, err)
		}
		var done, throttled uint64
		var rates []float64
		for _, pr := range rep.Per {
			done += pr.Ops
			throttled += pr.Throttled
			rates = append(rates, pr.RateOpsPerSimMs)
		}
		t.AddRow(n, done, throttled,
			stats.FormatFloat(rep.All.MeanSimNanos), stats.FormatFloat(rep.All.P50),
			stats.FormatFloat(rep.All.P99), stats.FormatFloat(stats.Mean(rates)),
			stats.FormatFloat(rep.Fairness))
	}
	return t, nil
}

// TenantRotation measures an online key rotation under live load: the
// same seeded run with and without a rotation armed mid-way on one
// victim tenant. Lazy re-encryption means the victim keeps serving
// during the sweep; the cost shows up as the sweep's extra device
// traffic and in the victim's latency profile.
func TenantRotation(p TenantExpParams) (*stats.Table, error) {
	p = p.fill()
	const n, victim = 4, uint32(2)
	base, err := tenantRun(p, n, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	rot, err := tenantRun(p, n, victim, p.Ops/2)
	if err != nil {
		return nil, fmt.Errorf("rotation: %w", err)
	}
	victimOf := func(rep *loadgen.TenantReport) loadgen.TenantResult {
		for _, pr := range rep.Per {
			if pr.ID == victim {
				return pr
			}
		}
		return loadgen.TenantResult{}
	}
	t := stats.NewTable(
		fmt.Sprintf("Online key rotation under load — %d tenants, victim tenant %d, %d ops",
			n, victim, p.Ops),
		"run", "victim ops", "victim mean (ns)", "victim p99 (ns)",
		"rotated lines", "sweep steps", "sweep span (ops)")
	bv := victimOf(base)
	t.AddRow("no rotation", bv.Ops, stats.FormatFloat(bv.Latency.MeanSimNanos),
		stats.FormatFloat(bv.Latency.P99), 0, 0, 0)
	rv := victimOf(rot)
	r := rot.Rotation
	t.AddRow("rotation mid-run", rv.Ops, stats.FormatFloat(rv.Latency.MeanSimNanos),
		stats.FormatFloat(rv.Latency.P99), r.Lines, r.Steps, r.DoneAtOp-r.StartedAtOp)
	return t, nil
}
