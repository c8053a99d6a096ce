package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/memctrl"
	"soteria/internal/netchaos"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// NetConfig scripts one network chaos run: a sharded device behind a
// supervised devnet server, a seeded fault-injecting proxy in front of
// it, and a fleet of retrying clients pushing a deterministic workload
// through the proxy while the fault schedule advances and the
// supervisor kills and restarts the server.
type NetConfig struct {
	// Seed drives workload content, fault decisions and client jitter.
	Seed int64
	// Ops is the data-operation count per client (default 60).
	Ops int
	// Clients is the concurrent client count (default 3).
	Clients int
	// Shards is the device shard count (default 4).
	Shards int
	// Mode is the controller mode.
	Mode memctrl.Mode
	// Kills is how many kill/restart cycles to run mid-workload.
	Kills int
	// Schedule is the sequence of fault phases; empty means one clean
	// phase. FaultName names the schedule on repro lines.
	Schedule  []netchaos.Faults
	FaultName string
	// Pipeline, when > 0, switches every client to the pipelined batched
	// front end (devnet.DialPipe) with this many batch frames in flight.
	Pipeline int
	// Batch is the max ops per batch frame in pipelined mode (default 8).
	Batch int
	// OpTimeout is the per-attempt client deadline (default 1s).
	OpTimeout time.Duration
	// PhaseCap bounds each phase's wall time so a partition phase (no
	// acks arriving) still ends (default 600ms).
	PhaseCap time.Duration
	// Logf, when non-nil, receives progress diagnostics.
	Logf func(format string, args ...any)
}

func (cfg *NetConfig) fill() {
	if cfg.Ops <= 0 {
		cfg.Ops = 60
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = time.Second
	}
	if cfg.PhaseCap <= 0 {
		cfg.PhaseCap = 600 * time.Millisecond
	}
	if cfg.Pipeline > 0 && cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if len(cfg.Schedule) == 0 {
		cfg.Schedule = []netchaos.Faults{{Name: "clean"}}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// NetResult reports one network chaos run. The fields above Violations
// are fully determined by the config (every planned operation must be
// acknowledged for the run to pass), so Report() is byte-identical
// across runs of the same config. The diagnostic fields depend on
// scheduling and wall time and are excluded from Report().
type NetResult struct {
	Clients      int
	OpsPerClient int
	Pipeline     int
	Batch        int
	AckedWrites  int
	AckedReads   int
	Kills        int
	Schedule     []string
	Violations   []string

	// Diagnostics (nondeterministic run to run).
	Retries          uint64
	BatchRetransmits uint64
	Reconnects       uint64
	Timeouts         uint64
	BusyWaits        uint64
	DedupHits        uint64
	AppliedWrites    uint64
	Shed             uint64
	Panics           uint64
	Proxy            netchaos.Stats
}

func (r *NetResult) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Report renders the deterministic outcome: same config, same bytes.
func (r *NetResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "net run: %d clients x %d ops, schedule [%s], %d kill/restart cycles\n",
		r.Clients, r.OpsPerClient, strings.Join(r.Schedule, " "), r.Kills)
	if r.Pipeline > 0 {
		fmt.Fprintf(&b, "front end: pipelined, window %d, batch %d\n", r.Pipeline, r.Batch)
	}
	fmt.Fprintf(&b, "acked: %d writes, %d reads\n", r.AckedWrites, r.AckedReads)
	if len(r.Violations) == 0 {
		fmt.Fprintf(&b, "oracle: every acked write read back exactly, retried writes applied once\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "VIOLATION: %s\n", v)
		}
	}
	return b.String()
}

// Diagnostics renders the wall-clock-dependent counters.
func (r *NetResult) Diagnostics() string {
	return fmt.Sprintf(
		"diagnostics: retries %d, batch-retransmits %d, reconnects %d, timeouts %d, busy-waits %d, dedup-hits %d, applied-writes %d, shed %d, panics %d, proxy{conns %d refused %d resets %d corrupted %d truncated %d frames %d}",
		r.Retries, r.BatchRetransmits, r.Reconnects, r.Timeouts, r.BusyWaits, r.DedupHits, r.AppliedWrites, r.Shed, r.Panics,
		r.Proxy.Conns, r.Proxy.Refused, r.Proxy.Resets, r.Proxy.CorruptedBytes, r.Proxy.TruncatedFrames, r.Proxy.FramesRelayed)
}

// NetRepro renders the cmd/chaos invocation that replays cfg.
func NetRepro(cfg NetConfig) string {
	name := cfg.FaultName
	if name == "" {
		name = "clean"
	}
	repro := fmt.Sprintf("go run ./cmd/chaos -net -seed %d -net-fault %s -writes %d -net-clients %d -kills %d -mode %s",
		cfg.Seed, name, cfg.Ops, cfg.Clients, cfg.Kills, ModeFlag(cfg.Mode))
	if cfg.Pipeline > 0 {
		repro += fmt.Sprintf(" -pipeline %d -net-batch %d", cfg.Pipeline, cfg.Batch)
	}
	return repro
}

// netClient is one workload driver: a resilient client with a private
// address region, so the expected content of every line it owns is
// known without cross-client coordination.
type netClient struct {
	c    *devnet.Client
	id   int
	opts devnet.Options
	rng  *rand.Rand
	last map[int]nvm.Line // slot -> last acknowledged content
	base uint64
}

const netWorkingSet = 16 // slots per client

func (w *netClient) addr(slot int) uint64 {
	return (w.base + uint64(slot)) * nvm.LineSize
}

// NetRun executes one scripted network chaos run and checks the
// end-to-end oracle: every acknowledged write reads back exactly, and
// the server-side applied-write counter matches the acknowledged count
// (a retried write that double-applied, or an unacknowledged write that
// leaked in, breaks the equality).
func NetRun(cfg NetConfig) (*NetResult, error) {
	cfg.fill()
	res := &NetResult{Clients: cfg.Clients, OpsPerClient: cfg.Ops, Kills: cfg.Kills,
		Pipeline: cfg.Pipeline, Batch: cfg.Batch}
	for _, f := range cfg.Schedule {
		res.Schedule = append(res.Schedule, f.String())
	}

	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   cfg.Mode,
		Key:    []byte("netchaos-campaign-key"),
		Shards: cfg.Shards,
	})
	if err != nil {
		return nil, err
	}
	defer dev.Close()

	serverReg := telemetry.NewRegistry()
	sup := netchaos.NewSupervisor(dev, devnet.ServerOptions{
		ReadStall:   time.Second,
		IdleTimeout: 30 * time.Second,
		Telemetry:   serverReg,
	}, cfg.Logf)
	addr, err := sup.Start()
	if err != nil {
		return nil, err
	}
	defer sup.Stop()

	proxy, err := netchaos.New(addr, cfg.Seed, cfg.Logf)
	if err != nil {
		return nil, err
	}
	defer proxy.Close()

	clientReg := telemetry.NewRegistry()
	workers := make([]*netClient, cfg.Clients)
	for i := range workers {
		sid := uint64(cfg.Seed)*1000003 + uint64(i) + 1
		if sid == 0 {
			sid = uint64(i) + 1
		}
		opts := devnet.Options{
			OpTimeout: cfg.OpTimeout,
			Retry: devnet.RetryPolicy{
				MaxAttempts: -1,
				MaxElapsed:  60 * time.Second,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  100 * time.Millisecond,
				RetryDown:   true,
			},
			Session:   sid,
			Seed:      cfg.Seed*31 + int64(i) + 1,
			Telemetry: clientReg,
		}
		workers[i] = &netClient{
			id:   i,
			opts: opts,
			rng:  rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			last: map[int]nvm.Line{},
			base: uint64(i) * 1024,
		}
		if cfg.Pipeline > 0 {
			// The pipe is single-goroutine; each worker dials its own
			// inside its goroutine.
			continue
		}
		c, err := devnet.DialWith(proxy.Addr(), opts)
		if err != nil {
			return nil, fmt.Errorf("chaos: dial client %d: %w", i, err)
		}
		defer c.Close()
		workers[i].c = c
	}

	// Shared progress counter: the driver advances phases and schedules
	// kills against it, with a wall cap so phases that block progress
	// (partition) still end.
	var acked atomic.Int64
	var ackedWrites, ackedReads atomic.Int64
	total := int64(cfg.Clients * cfg.Ops)

	var vmu sync.Mutex
	addViolation := func(format string, args ...any) {
		vmu.Lock()
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		vmu.Unlock()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *netClient) {
			defer wg.Done()
			if cfg.Pipeline > 0 {
				w.runPipelined(&cfg, proxy.Addr(), addViolation, &acked, &ackedWrites, &ackedReads)
				return
			}
			for j := 0; j < cfg.Ops; j++ {
				slot := w.rng.Intn(netWorkingSet)
				_, written := w.last[slot]
				if !written || j%3 != 2 {
					line := lineFor(cfg.Seed, 0, w.id*1_000_000+j)
					if _, err := w.c.Write(w.addr(slot), &line); err != nil {
						addViolation("client %d write op %d failed through retries: %v", w.id, j, err)
						return
					}
					w.last[slot] = line
					ackedWrites.Add(1)
				} else {
					got, _, err := w.c.Read(w.addr(slot))
					if err != nil {
						addViolation("client %d read op %d failed through retries: %v", w.id, j, err)
						return
					}
					if got != w.last[slot] {
						addViolation("client %d slot %d: read returned data != last acknowledged write", w.id, slot)
						return
					}
					ackedReads.Add(1)
				}
				acked.Add(1)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	// Driver: step the fault schedule and fire kills at acked-progress
	// thresholds (wall-capped).
	phases := len(cfg.Schedule)
	killAt := make([]int64, 0, cfg.Kills)
	for k := 1; k <= cfg.Kills; k++ {
		killAt = append(killAt, total*int64(k)/int64(cfg.Kills+1))
	}
	killIdx := 0
	maybeKill := func() {
		for killIdx < len(killAt) && acked.Load() >= killAt[killIdx] {
			killIdx++
			cfg.Logf("chaos: kill/restart cycle %d", killIdx)
			if err := sup.Kill(); err != nil {
				addViolation("kill cycle %d: %v", killIdx, err)
				return
			}
			time.Sleep(20 * time.Millisecond)
			if err := sup.Restart(); err != nil {
				cfg.Logf("chaos: restart cycle %d failed: %v", killIdx, err)
				addViolation("restart cycle %d: %v", killIdx, err)
				return
			}
		}
	}
	running := true
	for i := 0; i < phases && running; i++ {
		proxy.SetFaults(cfg.Schedule[i])
		target := total * int64(i+1) / int64(phases)
		deadline := time.Now().Add(cfg.PhaseCap)
		for acked.Load() < target && time.Now().Before(deadline) {
			maybeKill()
			select {
			case <-done:
				running = false
			case <-time.After(2 * time.Millisecond):
			}
			if !running {
				break
			}
		}
	}
	proxy.Clear()
	// Fire any kills the workload outran, then let it finish fault-free.
	maybeKill()
	for killIdx < len(killAt) {
		killAt[killIdx] = 0
		maybeKill()
	}
	<-done

	// Teardown oracle, over a clean connection straight to the server:
	// every line the workload acknowledged must read back exactly.
	verify, err := devnet.DialWith(sup.Addr(), devnet.Options{
		OpTimeout: 5 * time.Second,
		Retry:     devnet.RetryPolicy{MaxAttempts: 10, RetryDown: true, BaseBackoff: 5 * time.Millisecond},
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: dial verify client: %w", err)
	}
	defer verify.Close()
	if err := verify.Flush(); err != nil {
		res.violate("final flush: %v", err)
	}
	for _, w := range workers {
		for slot := 0; slot < netWorkingSet; slot++ {
			want, ok := w.last[slot]
			if !ok {
				continue
			}
			got, _, err := verify.Read(w.addr(slot))
			if err != nil {
				res.violate("final read back client %d slot %d: %v", w.id, slot, err)
				continue
			}
			if got != want {
				res.violate("client %d slot %d: acknowledged write lost or mangled", w.id, slot)
			}
		}
	}
	if err := dev.VerifyAll(); err != nil {
		res.violate("device integrity after run: %v", err)
	}

	res.AckedWrites = int(ackedWrites.Load())
	res.AckedReads = int(ackedReads.Load())
	res.Kills = sup.Kills()
	res.Retries = clientReg.Counter("devnet_client_retries_total").Value()
	res.BatchRetransmits = clientReg.Counter("devnet_client_batch_retransmits_total").Value()
	res.Reconnects = clientReg.Counter("devnet_client_reconnects_total").Value()
	res.Timeouts = clientReg.Counter("devnet_client_timeouts_total").Value()
	res.BusyWaits = clientReg.Counter("devnet_client_busy_waits_total").Value()
	res.DedupHits = serverReg.Counter("devnet_server_dedup_hits_total").Value()
	res.AppliedWrites = serverReg.Counter("devnet_server_applied_writes_total").Value()
	res.Shed = serverReg.Counter("devnet_server_shed_total").Value()
	res.Panics = serverReg.Counter("devnet_server_handler_panics_total").Value()
	res.Proxy = proxy.Stats()

	// Exactly-once: the server applied precisely as many writes as the
	// clients got acknowledged — a dedup miss on a retry of a committed
	// write would push applied above acked; a phantom ack the other way.
	if res.AppliedWrites != uint64(res.AckedWrites) {
		res.violate("applied writes %d != acknowledged writes %d (retry applied twice or ack leaked)",
			res.AppliedWrites, res.AckedWrites)
	}
	if len(res.Violations) == 0 && res.AckedWrites+res.AckedReads != int(total) {
		res.violate("acked %d ops, planned %d", res.AckedWrites+res.AckedReads, total)
	}
	return res, nil
}

// runPipelined drives one client's workload through a windowed batching
// pipe. Ordering contract: the pipe pipelines freely across slots but
// each slot is serialized here (a slot's next op is only submitted after
// its previous one completed), so read-your-write per slot holds and
// w.last stays the per-slot acknowledged-content oracle. The completion
// handler runs on this goroutine (inside Submit/Wait/Flush), so the
// slot state needs no locks.
func (w *netClient) runPipelined(cfg *NetConfig, addr string,
	addViolation func(format string, args ...any),
	acked, ackedWrites, ackedReads *atomic.Int64) {
	var busy [netWorkingSet]bool
	var pending [netWorkingSet]nvm.Line
	var opFail error
	p, err := devnet.DialPipe(addr, func(tag uint64, op uint8, data *nvm.Line, _ sim.Time, err error) {
		slot := int(tag)
		if err != nil {
			if opFail == nil {
				opFail = fmt.Errorf("slot %d: %w", slot, err)
			}
		} else {
			switch op {
			case device.BatchWrite:
				w.last[slot] = pending[slot]
				ackedWrites.Add(1)
			case device.BatchRead:
				if *data != w.last[slot] {
					addViolation("client %d slot %d: pipelined read returned data != last acknowledged write", w.id, slot)
				}
				ackedReads.Add(1)
			}
		}
		busy[slot] = false
		acked.Add(1)
	}, devnet.PipeOptions{Options: w.opts, Window: cfg.Pipeline, MaxBatch: cfg.Batch})
	if err != nil {
		addViolation("client %d: pipelined dial: %v", w.id, err)
		return
	}
	defer p.Close()
	for j := 0; j < cfg.Ops && opFail == nil; j++ {
		slot := w.rng.Intn(netWorkingSet)
		for busy[slot] && opFail == nil {
			if err := p.Wait(); err != nil && opFail == nil {
				opFail = err
			}
		}
		if opFail != nil {
			break
		}
		_, written := w.last[slot]
		if !written || j%3 != 2 {
			pending[slot] = lineFor(cfg.Seed, 0, w.id*1_000_000+j)
			busy[slot] = true
			err = p.Submit(uint64(slot), device.BatchWrite, w.addr(slot), &pending[slot])
		} else {
			busy[slot] = true
			err = p.Submit(uint64(slot), device.BatchRead, w.addr(slot), nil)
		}
		if err != nil && opFail == nil {
			opFail = err
		}
	}
	if opFail == nil {
		if err := p.Flush(); err != nil {
			opFail = err
		}
	}
	if opFail != nil {
		addViolation("client %d: pipelined workload failed through retries: %v", w.id, opFail)
	}
}

// NetFaultSchedule maps a -net-fault flag value to a fault schedule.
func NetFaultSchedule(name string) ([]netchaos.Faults, error) {
	switch name {
	case "", "clean":
		return []netchaos.Faults{{Name: "clean"}}, nil
	case "latency":
		return []netchaos.Faults{{Name: "latency", Latency: 200 * time.Microsecond, Jitter: 400 * time.Microsecond}}, nil
	case "throttle":
		return []netchaos.Faults{{Name: "throttle", BandwidthBPS: 256 << 10}}, nil
	case "corrupt":
		return []netchaos.Faults{{Name: "corrupt", CorruptEvery: 700}}, nil
	case "reset":
		return []netchaos.Faults{{Name: "reset", ResetAfterBytes: 4000}}, nil
	case "truncate":
		return []netchaos.Faults{{Name: "truncate", TruncateEveryNthFrame: 9}}, nil
	case "partition":
		return []netchaos.Faults{
			{Name: "clean"},
			{Name: "partition", Partition: true},
			{Name: "heal"},
		}, nil
	case "combined":
		return []netchaos.Faults{
			{Name: "latency", Latency: 100 * time.Microsecond, Jitter: 200 * time.Microsecond},
			{Name: "corrupt", CorruptEvery: 900},
			{Name: "reset", ResetAfterBytes: 6000},
			{Name: "truncate", TruncateEveryNthFrame: 11},
			{Name: "partition", Partition: true},
			{Name: "heal"},
		}, nil
	default:
		return nil, fmt.Errorf("chaos: unknown net fault %q (want clean|latency|throttle|corrupt|reset|truncate|partition|combined)", name)
	}
}

// netSweepCases is the standard sweep: every fault family alone, the
// combined schedule, and the combined schedule with kill/restart cycles.
var netSweepCases = []struct {
	fault string
	kills int
}{
	{"clean", 0},
	{"latency", 0},
	{"throttle", 0},
	{"corrupt", 0},
	{"reset", 0},
	{"truncate", 0},
	{"partition", 0},
	{"combined", 0},
	{"combined", 2},
}

// NetSweep runs the standard network chaos sweep and aggregates it like
// the crash sweeps: every failing case carries a one-line repro.
func NetSweep(base NetConfig, logf func(string, ...any)) (*CampaignResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	out := &CampaignResult{}
	for _, tc := range netSweepCases {
		cfg := base
		cfg.FaultName = tc.fault
		cfg.Kills = tc.kills
		sched, err := NetFaultSchedule(tc.fault)
		if err != nil {
			return nil, err
		}
		cfg.Schedule = sched
		res, err := NetRun(cfg)
		if err != nil {
			return nil, err
		}
		out.Runs++
		if len(res.Violations) > 0 {
			out.Failures = append(out.Failures, Failure{Repro: NetRepro(cfg), Violations: res.Violations})
		}
		logf("net sweep %s (kills %d): %d writes, %d reads, %d violations — %s",
			tc.fault, res.Kills, res.AckedWrites, res.AckedReads, len(res.Violations), res.Diagnostics())
	}
	return out, nil
}
