// Root-level benchmarks: one per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment at a reduced scale
// and reports the headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// produces a one-screen summary of the reproduction. cmd/experiments runs
// the same code at full scale with printed tables.
package soteria

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"soteria/internal/config"
	"soteria/internal/core"
	"soteria/internal/ctrenc"
	"soteria/internal/device"
	"soteria/internal/experiments"
	"soteria/internal/faultsim"
	"soteria/internal/memctrl"
	"soteria/internal/runner"
	"soteria/internal/telemetry"
	"soteria/internal/tenant"
)

// benchWorkloads is the representative subset used by the performance
// benchmarks (the full 19-workload sweep runs in cmd/experiments).
var benchWorkloads = []string{"uBENCH128", "hashmap", "tpcc", "mcf"}

func perfParams(b *testing.B) experiments.PerfParams {
	b.Helper()
	p := experiments.DefaultPerfParams()
	p.Ops = 40_000
	p.Warmup = 10_000
	p.Workloads = benchWorkloads
	return p
}

// BenchmarkTable2CloneDepths regenerates Table 2 (SRC/SAC depth tables).
func BenchmarkTable2CloneDepths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		if t.NumRows() != 2 {
			b.Fatal("table 2 must have SRC and SAC rows")
		}
	}
}

// BenchmarkTable3SystemConfig regenerates Table 3 and validates it.
func BenchmarkTable3SystemConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := config.Table3().Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4FaultSimConfig regenerates Table 4 and validates it.
func BenchmarkTable4FaultSimConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := config.Table4().DIMM.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ExpectedLoss regenerates Fig 3 (expected loss versus error
// count, 4 TB secure vs non-secure) and reports the amplification factor
// (paper: ~12x).
func BenchmarkFig3ExpectedLoss(b *testing.B) {
	var amp float64
	for i := 0; i < b.N; i++ {
		var err error
		amp, err = experiments.AmplificationFactor(4 << 40)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(amp, "x-amplification")
}

// BenchmarkFig4EvictionLevels regenerates Fig 4 (eviction share per tree
// level under lazy update) and reports the leaf-level share (paper: the
// vast majority of evictions are leaf-level).
func BenchmarkFig4EvictionLevels(b *testing.B) {
	p := perfParams(b)
	var leafShare float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPerf(p)
		if err != nil {
			b.Fatal(err)
		}
		byLevel := res.Get("hashmap", memctrl.ModeSRC).Meta.EvictionsByLevel
		var total uint64
		for _, n := range byLevel {
			total += n
		}
		leafShare = float64(byLevel[1]) / float64(max(total, 1))
	}
	b.ReportMetric(leafShare*100, "%leaf-evictions")
}

// BenchmarkFig10aPerformance regenerates Fig 10a (execution-time overhead
// of SRC/SAC over the secure baseline; paper: ~1% / ~1.1%).
func BenchmarkFig10aPerformance(b *testing.B) {
	p := perfParams(b)
	var src, sac float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPerf(p)
		if err != nil {
			b.Fatal(err)
		}
		var sSum, aSum float64
		for _, name := range res.Names {
			base := float64(res.Get(name, memctrl.ModeBaseline).ExecTime)
			sSum += float64(res.Get(name, memctrl.ModeSRC).ExecTime) / base
			aSum += float64(res.Get(name, memctrl.ModeSAC).ExecTime) / base
		}
		src = (sSum/float64(len(res.Names)) - 1) * 100
		sac = (aSum/float64(len(res.Names)) - 1) * 100
	}
	b.ReportMetric(src, "%src-overhead")
	b.ReportMetric(sac, "%sac-overhead")
}

// BenchmarkFig10bWrites regenerates Fig 10b (NVM write overhead; paper:
// ~4.3% SRC / ~4.4% SAC).
func BenchmarkFig10bWrites(b *testing.B) {
	p := perfParams(b)
	var src, sac float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPerf(p)
		if err != nil {
			b.Fatal(err)
		}
		var sSum, aSum float64
		var n int
		for _, name := range res.Names {
			bw := float64(res.Get(name, memctrl.ModeBaseline).Ctrl.TotalNVMWrites())
			if bw == 0 {
				continue // cache-resident in this window; no ratio
			}
			sSum += float64(res.Get(name, memctrl.ModeSRC).Ctrl.TotalNVMWrites()) / bw
			aSum += float64(res.Get(name, memctrl.ModeSAC).Ctrl.TotalNVMWrites()) / bw
			n++
		}
		src = (sSum/float64(n) - 1) * 100
		sac = (aSum/float64(n) - 1) * 100
	}
	b.ReportMetric(src, "%src-writes")
	b.ReportMetric(sac, "%sac-writes")
}

// BenchmarkFig10cEvictionRate regenerates Fig 10c (metadata-cache dirty
// evictions per memory operation; paper: ~1.3% average).
func BenchmarkFig10cEvictionRate(b *testing.B) {
	p := perfParams(b)
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPerf(p)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, name := range res.Names {
			r := res.Get(name, memctrl.ModeSRC)
			sum += float64(r.Meta.DirtyTreeEvictions) / float64(r.MemOps)
		}
		rate = sum / float64(len(res.Names)) * 100
	}
	b.ReportMetric(rate, "%evictions/op")
}

// BenchmarkFig11UDR regenerates a reduced Fig 11 point (UDR at FIT 80 under
// Chipkill for baseline/SRC/SAC; paper: 3e-5 / 2.66e-8 / 1.5e-9).
func BenchmarkFig11UDR(b *testing.B) {
	p := experiments.DefaultRelParams()
	p.Trials = 20_000
	p.FITs = []float64{80}
	var base, src, sac float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(p)
		if err != nil {
			b.Fatal(err)
		}
		base, src, sac = r.UDRs["baseline"][0], r.UDRs["SRC"][0], r.UDRs["SAC"][0]
	}
	b.ReportMetric(base*1e9, "baseline-UDR-e9")
	b.ReportMetric(src*1e9, "src-UDR-e9")
	b.ReportMetric(sac*1e9, "sac-UDR-e9")
}

// BenchmarkFaultSweepRunner measures the parallel experiment engine on a
// reduced multi-point FIT sweep — the workload behind Fig 11 — and reports
// sustained trial throughput. This is the number the runner's block
// scheduling and buffer reuse are meant to move; refresh the baseline in
// EXPERIMENTS.md when it shifts.
func BenchmarkFaultSweepRunner(b *testing.B) {
	cfg := config.Table4()
	schemes := make([]*faultsim.Scheme, 0, 3)
	for _, pol := range []core.ClonePolicy{core.Baseline(), core.SRC(), core.SAC()} {
		s, err := faultsim.BuildScheme(cfg.DIMM, pol, 8192)
		if err != nil {
			b.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	sweep := runner.FaultSweep{
		Config: cfg, FITs: []float64{20, 80}, Trials: 5_000, Seed: 42,
		Conditional: true, Schemes: schemes, Label: "bench",
	}
	eng := runner.New(runner.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := eng.RunFaultSweep(sweep)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 2 {
			b.Fatal("sweep dropped a FIT point")
		}
	}
	trials := float64(sweep.Trials * len(sweep.FITs))
	b.ReportMetric(trials*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkFig12DataLoss regenerates Fig 12 (loss split for an 8 TB memory)
// at a reduced trial count.
func BenchmarkFig12DataLoss(b *testing.B) {
	p := experiments.DefaultRelParams()
	p.Trials = 20_000
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig12(p, 80, 8<<40)
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 4 {
			b.Fatal("Fig 12 must compare four schemes")
		}
	}
}

// BenchmarkMTBF regenerates the §4 MTBF sanity check (paper: 694 h at FIT 1
// to 8.6 h at FIT 80).
func BenchmarkMTBF(b *testing.B) {
	var m float64
	for i := 0; i < b.N; i++ {
		var err error
		m, err = experiments.SystemMTBF(80, experiments.PaperClusterNodes,
			experiments.PaperClusterDIMMs, experiments.PaperClusterChips)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m, "hours-at-FIT80")
}

// BenchmarkAblationEagerLazy regenerates the lazy-vs-eager tree-update
// ablation (§2.5's "extreme slowdown" argument) and reports the slowdown.
func BenchmarkAblationEagerLazy(b *testing.B) {
	p := experiments.DefaultPerfParams()
	p.Ops, p.Warmup = 15_000, 5_000
	p.Workloads = []string{"hashmap"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationEagerLazy(p)
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 1 {
			b.Fatal("ablation row missing")
		}
	}
}

// BenchmarkAblationCloneDepth regenerates the uniform clone-depth sweep
// (cost/benefit behind Table 2's SAC shape).
func BenchmarkAblationCloneDepth(b *testing.B) {
	p := experiments.DefaultPerfParams()
	p.Ops, p.Warmup = 10_000, 2_000
	rel := experiments.DefaultRelParams()
	rel.Trials = 5_000
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationCloneDepth(p, rel, 80)
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 5 {
			b.Fatal("depth rows missing")
		}
	}
}

// benchReadHit measures the secure read path with warm metadata (the
// steady-state datapath cost), optionally with a telemetry registry
// attached. Comparing the two variants bounds the enabled-telemetry cost;
// the unattached one is the baseline the <5%-overhead acceptance check
// tracks (detached handles are single nil checks).
func benchReadHit(b *testing.B, attach bool) {
	ctrl, err := memctrl.New(config.TestSystem(), memctrl.ModeSRC, []byte("b"), memctrl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if attach {
		ctrl.AttachTelemetry(telemetry.NewRegistry())
	}
	var line [64]byte
	now, err := ctrl.WriteBlock(0, 0, &line)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, now, err = ctrl.ReadBlock(now, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerReadHit is the telemetry-detached read path.
func BenchmarkControllerReadHit(b *testing.B) { benchReadHit(b, false) }

// BenchmarkControllerReadHitTelemetry is the same path with every counter
// and span live.
func BenchmarkControllerReadHitTelemetry(b *testing.B) { benchReadHit(b, true) }

// BenchmarkControllerReadMiss is the read-miss rung of the layer ladder,
// the regime of soteria-bench's ctrl-read-cold: a 16 MB image with every
// block written, read uniformly at random, so nearly every read misses the
// metadata cache and pays verified fetches of its counter block and
// ancestors (NVM read, ECC decode, MAC check) plus a MAC-line fill. The CI
// bench-compare step gates on it.
func BenchmarkControllerReadMiss(b *testing.B) {
	cfg := config.TestSystem()
	cfg.NVM.CapacityBytes = 16 << 20
	ctrl, err := memctrl.New(cfg, memctrl.ModeSRC, []byte("b"), memctrl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	blocks := int64(cfg.NVM.CapacityBytes / 64)
	var line [64]byte
	now := ctrl.DrainWPQ(0)
	for i := int64(0); i < blocks; i++ {
		if now, err = ctrl.WriteBlock(now, uint64(i)*64, &line); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, now, err = ctrl.ReadBlock(now, uint64(rng.Int63n(blocks))*64); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWrite measures the secure write path (encrypt + MAC + shadow log +
// WPQ), optionally with telemetry attached.
func benchWrite(b *testing.B, attach bool) {
	ctrl, err := memctrl.New(config.TestSystem(), memctrl.ModeSAC, []byte("b"), memctrl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if attach {
		ctrl.AttachTelemetry(telemetry.NewRegistry())
	}
	var line [64]byte
	var now = ctrl.DrainWPQ(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%1024) * 64
		var err error
		if now, err = ctrl.WriteBlock(now, addr, &line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerWrite is the telemetry-detached write path.
func BenchmarkControllerWrite(b *testing.B) { benchWrite(b, false) }

// BenchmarkControllerWriteTelemetry is the same path with every counter
// and span live.
func BenchmarkControllerWriteTelemetry(b *testing.B) { benchWrite(b, true) }

// benchSink keeps hot-path micro-benchmark results observable so the
// compiler cannot elide the measured work.
var benchSink uint64

// BenchmarkMAC measures one keyed 64-bit MAC over a 64-byte line — the
// single most frequent operation in the controller (data MACs, node MACs,
// shadow MACs all land here). The CI bench-compare step gates on it.
func BenchmarkMAC(b *testing.B) {
	eng := ctrenc.MustNewEngine([]byte("bench-mac-key"))
	var line [64]byte
	for i := range line {
		line[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = eng.MAC(ctrenc.DomainData, uint64(i), 42, line[:])
	}
}

// BenchmarkCounterBlockRoundTrip measures the split-counter block codec
// (serialize + deserialize), the per-metadata-writeback serialization cost.
func BenchmarkCounterBlockRoundTrip(b *testing.B) {
	var cb ctrenc.CounterBlock
	cb.Major = 12345
	for i := range cb.Minors {
		cb.Minors[i] = uint8(i % 63)
	}
	cb.MAC = 0xDEADBEEF
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := cb.Serialize()
		out := ctrenc.DeserializeCounterBlock(&line)
		benchSink = out.Major
	}
}

// benchSteadyState measures the warm-cache secure datapath under a 3:1
// write:read mix over a 512-block working set — the steady-state regime of
// cmd/experiments and the device service — for one metadata-persistence
// strategy ("" = default).
func benchSteadyState(b *testing.B, strategy string) {
	ctrl, err := memctrl.New(config.TestSystem(), memctrl.ModeSRC, []byte("b"), memctrl.Options{Strategy: strategy})
	if err != nil {
		b.Fatal(err)
	}
	var line [64]byte
	now := ctrl.DrainWPQ(0)
	for i := 0; i < 512; i++ {
		if now, err = ctrl.WriteBlock(now, uint64(i)*64, &line); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%512) * 64
		if i%4 == 3 {
			if _, now, err = ctrl.ReadBlock(now, addr); err != nil {
				b.Fatal(err)
			}
		} else if now, err = ctrl.WriteBlock(now, addr, &line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerSteadyState is the default-strategy steady state. The
// CI bench-compare step gates on it.
func BenchmarkControllerSteadyState(b *testing.B) {
	benchSteadyState(b, "")
}

// BenchmarkControllerSteadyStateScheme runs the same steady-state regime
// once per registered metadata-persistence strategy, so the cost of each
// scheme's persistence hooks shows up side by side in the CI bench
// artifact. Dashes in strategy names become underscores: a bench name
// ending in "-2" would be mis-parsed as a GOMAXPROCS suffix by the
// benchmark tooling.
func BenchmarkControllerSteadyStateScheme(b *testing.B) {
	for _, name := range memctrl.Strategies() {
		sub := "strategy=" + strings.ReplaceAll(name, "-", "_")
		b.Run(sub, func(b *testing.B) { benchSteadyState(b, name) })
	}
}

// recoverWrites is how many writes, cycling 512 blocks, precede each
// crash in BenchmarkControllerRecover: four passes, enough for every block's
// counter and MAC line to be dirty in the metadata cache when power fails.
const recoverWrites = 2048

// BenchmarkControllerRecover is the recovery rung of the layer ladder, the
// cost soteria-bench reports as recover_ms on ctrl-write-hot: one Crash and
// Recover cycle (shadow-table scan, Osiris counter trials, re-verification)
// after recoverWrites writes over 512 blocks. Each cycle is timed on its
// own, and the minimum and median per cycle are the metrics to compare;
// ns/op and the allocations also count the writes. The timer is not
// stopped around the writes: each StopTimer/StartTimer pair reads the
// memory statistics, which stops the world.
func BenchmarkControllerRecover(b *testing.B) {
	ctrl, err := memctrl.New(config.TestSystem(), memctrl.ModeSRC, []byte("b"), memctrl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var line [64]byte
	var rep *memctrl.RecoveryReport
	now := ctrl.DrainWPQ(0)
	cycles := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range cycles {
		for w := 0; w < recoverWrites; w++ {
			line[0] = byte(w)
			if now, err = ctrl.WriteBlock(now, uint64(w%512)*64, &line); err != nil {
				b.Fatal(err)
			}
		}
		start := time.Now()
		if err := ctrl.Crash(); err != nil {
			b.Fatal(err)
		}
		if rep, err = ctrl.Recover(); err != nil {
			b.Fatal(err)
		}
		cycles[i] = time.Since(start)
	}
	b.StopTimer()
	slices.Sort(cycles)
	b.ReportMetric(float64(cycles[0].Nanoseconds()), "min-ns/cycle")
	b.ReportMetric(float64(cycles[len(cycles)/2].Nanoseconds()), "median-ns/cycle")
	b.ReportMetric(float64(rep.TrackedEntries), "tracked")
	b.ReportMetric(float64(rep.RecoveredBlocks), "recovered")
}

// benchDevice measures the sharded device service end to end: one
// closed-loop goroutine per shard issuing a write-heavy mix, each op
// executing in place under its shard's lock. Scaling from 1 to 8 shards shows how
// much concurrency the sharding actually buys at the device surface.
func benchDevice(b *testing.B, shards int) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("bench-device-key"),
		Shards: shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	info := dev.Info()
	linesPerShard := info.CapacityBytes / 64 / uint64(shards)
	if linesPerShard > 1024 {
		linesPerShard = 1024
	}
	perShard := b.N/shards + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var line [64]byte
			for i := 0; i < perShard; i++ {
				// Global line-interleaved address owned by shard s.
				addr := ((uint64(i)%linesPerShard)*uint64(shards) + uint64(s)) * 64
				if i%4 == 3 {
					if _, _, err := dev.Read(addr); err != nil {
						b.Error(err)
						return
					}
				} else if _, err := dev.Write(addr, &line); err != nil {
					b.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

// BenchmarkDeviceThroughput is the device-layer smoke benchmark the CI
// bench artifact tracks across 1, 4 and 8 shards.
func BenchmarkDeviceThroughput(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		// "shards=N", not "shards-N": a trailing -N would be parsed as the
		// GOMAXPROCS suffix by benchparse and collapse the three names.
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchDevice(b, shards)
		})
	}
}

// benchTenants measures the multi-tenant secure-memory service end to
// end: closed-loop round-robin over the tenants through admission, the
// per-tenant key domain (seal + MAC + guard protocol) and the
// device underneath. Scaling 1 -> 16 tenants shows what the
// tenant layer costs on top of BenchmarkDeviceThroughput (key-domain
// switching, guard-cache pressure) at even load, where fair-share
// admission never throttles.
func benchTenants(b *testing.B, tenants int) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("bench-device-key"),
		Shards: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte("bench-tenant-master")})
	if err != nil {
		b.Fatal(err)
	}
	const lines = 256
	for id := 1; id <= tenants; id++ {
		if _, err := svc.Provision(uint32(id), lines, 0); err != nil {
			b.Fatal(err)
		}
	}
	var line [64]byte
	// Warm the guard caches so the timed loop measures steady state.
	// Round-robin like the timed loop: even load never trips the
	// fair-share throttle, a single tenant bursting a whole extent would.
	for l := uint64(0); l < lines; l++ {
		for id := 1; id <= tenants; id++ {
			if _, err := svc.Write(uint32(id), l*64, &line); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint32(1 + i%tenants)
		addr := (uint64(i/tenants) % lines) * 64
		if i%4 == 3 {
			if _, _, err := svc.Read(id, addr); err != nil {
				b.Fatal(err)
			}
		} else if _, err := svc.Write(id, addr, &line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceThroughputTenants is the tenant-layer companion the CI
// bench gate tracks across 1, 4 and 16 tenants. The single-tenant
// steady-state path is additionally pinned allocation-free by
// internal/tenant's TestSingleTenantSteadyStateZeroAllocs.
func BenchmarkDeviceThroughputTenants(b *testing.B) {
	for _, tenants := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			benchTenants(b, tenants)
		})
	}
}
