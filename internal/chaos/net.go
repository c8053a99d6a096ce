package chaos

import (
	"fmt"
	"sync"
	"time"

	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/netchaos"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// NetConfig fully determines one network chaos scenario: the sharded
// device behind a supervised devnet server, a seeded fault-injecting proxy
// in front of it, and the runner's workload sent through the proxy while
// fault phases and server kill/restart cycles fire at fixed op indices and
// power is cut at a device-wide write boundary.
type NetConfig struct {
	DeviceConfig
	// Clients is the stop-and-wait client count (default 3): op i goes to
	// client i % Clients.
	Clients int
	// Kills is how many server kill/restart cycles run, at evenly spaced
	// ops.
	Kills int
	// FaultName names the fault schedule (a netFaults key, default
	// "clean"); its phases start at evenly spaced ops.
	FaultName string
	// Pipeline, when > 0, sends the workload through one devnet.Pipe with
	// this many batch frames in flight instead of through the clients.
	Pipeline int
	// Batch is the max ops per batch frame in pipelined mode (default 8).
	Batch int
}

func (cfg NetConfig) normalized() NetConfig {
	cfg.DeviceConfig = cfg.DeviceConfig.normalized()
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if cfg.FaultName == "" {
		cfg.FaultName = "clean"
	}
	if cfg.Pipeline > 0 && cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	return cfg
}

// NetRepro renders the cmd/chaos invocation that replays cfg.
func NetRepro(cfg NetConfig) string {
	cfg = cfg.normalized()
	s := fmt.Sprintf("go run ./cmd/chaos -net %s -net-fault %s -kills %d", cfg.flags(), cfg.FaultName, cfg.Kills)
	if cfg.Pipeline > 0 {
		s += fmt.Sprintf(" -pipeline %d -net-batch %d", cfg.Pipeline, cfg.Batch)
	} else {
		s += fmt.Sprintf(" -net-clients %d", cfg.Clients)
	}
	return s + crashFlag(cfg.CrashAt)
}

// partitionCap is how long a partition phase holds before it heals.
const partitionCap = 100 * time.Millisecond

// readTag marks the pipe's answer to a read-back, not a workload op.
const readTag = ^uint64(0)

// netStack is the device stack served over TCP: op and read go through
// the fault proxy — by stop-and-wait clients, or by one pipe that flushes
// before it would submit a key twice, so batch composition (and with it
// device order and boundary numbering) is a function of the seed — while
// crash, recover, flush and verify act on the device in process.
type netStack struct {
	devStack
	cfg     NetConfig
	phases  []netchaos.Faults
	sup     *netchaos.Supervisor
	proxy   *netchaos.Proxy
	applied *telemetry.Counter
	clients []*devnet.Client
	pipe    *devnet.Pipe
	keys    map[key]bool // submitted to the pipe since its last flush
	acked   uint64       // writes acknowledged over the wire
	next    int          // first op index whose phase and kill events have not fired
	got     nvm.Line     // the pipe's answer to read
	gotErr  error
	healed  chan struct{} // closed once an armed partition has healed
}

func newNetScenario(cfg NetConfig) (*scenario, *netStack, error) {
	cfg = cfg.normalized()
	phases, ok := netFaults[cfg.FaultName]
	if !ok {
		return nil, nil, fmt.Errorf("chaos: unknown net fault %q (want clean|latency|throttle|corrupt|reset|truncate|partition|combined)", cfg.FaultName)
	}
	sc, d, err := newDeviceScenario(cfg.DeviceConfig)
	if err != nil {
		return nil, nil, err
	}
	// The server, the proxy and the runner log from their own goroutines.
	var mu sync.Mutex
	logf := sc.logf
	sc.logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logf(format, args...)
	}
	n := &netStack{devStack: *d, cfg: cfg, phases: phases, keys: map[key]bool{}}
	sc.stack = n
	// A kill crashes and recovers the device at an op boundary; the
	// boundaries it crosses are not the workload's.
	n.inj.down = n.dev.Down
	if err := n.start(); err != nil {
		n.close()
		return nil, nil, err
	}
	return sc, n, nil
}

// start brings up the server, the proxy and the front end.
func (n *netStack) start() error {
	serverReg := telemetry.NewRegistry()
	n.applied = serverReg.Counter("devnet_server_applied_writes_total")
	n.sup = netchaos.NewSupervisor(n.dev, devnet.ServerOptions{
		ReadStall: time.Second, IdleTimeout: 30 * time.Second, Telemetry: serverReg,
	}, n.sc.logf)
	addr, err := n.sup.Start()
	if err != nil {
		return err
	}
	if n.proxy, err = netchaos.New(addr, n.cfg.Seed, n.sc.logf); err != nil {
		return err
	}
	opts := func(i int) devnet.Options {
		// Without RetryDown an op the power loss cut fails instead of
		// waiting for a recovery only the runner performs.
		return devnet.Options{
			OpTimeout: time.Second,
			Retry:     devnet.RetryPolicy{MaxAttempts: -1, MaxElapsed: time.Minute, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
			Session:   uint64(n.cfg.Seed)*1000003 + uint64(i) + 1,
			Seed:      n.cfg.Seed*31 + int64(i) + 1,
		}
	}
	if n.cfg.Pipeline > 0 {
		n.pipe, err = devnet.DialPipe(n.proxy.Addr(), n.deliver,
			devnet.PipeOptions{Options: opts(0), Window: n.cfg.Pipeline, MaxBatch: n.cfg.Batch})
		return err
	}
	for i := 0; i < n.cfg.Clients; i++ {
		c, err := devnet.DialWith(n.proxy.Addr(), opts(i))
		if err != nil {
			return fmt.Errorf("chaos: dial client %d: %w", i, err)
		}
		n.clients = append(n.clients, c)
	}
	return nil
}

func (n *netStack) close() {
	if n.healed != nil {
		<-n.healed
	}
	if n.pipe != nil {
		n.pipe.Close()
	}
	for _, c := range n.clients {
		c.Close()
	}
	if n.proxy != nil {
		n.proxy.Close()
	}
	if n.sup != nil {
		n.sup.Stop()
	}
	n.dev.Close()
}

// deliver is the pipe's completion handler.
func (n *netStack) deliver(tag uint64, op uint8, data *nvm.Line, _ sim.Time, err error) {
	var got nvm.Line
	if data != nil {
		got = *data
	}
	switch {
	case tag == readTag:
		n.got, n.gotErr = got, err
		return
	case op == device.BatchWrite && err == nil:
		n.acked++ // for the exactly-once check
	}
	n.sc.done(int(tag), got, err)
}

func (n *netStack) op(i int, k key, line *nvm.Line) {
	restarted := n.events(i)
	if n.pipe == nil {
		c := n.clients[i%len(n.clients)]
		var got nvm.Line
		var err error
		if line == nil {
			got, _, err = c.Read(k.addr)
		} else if _, err = c.Write(k.addr, line); err == nil {
			n.acked++
		}
		n.sc.done(i, got, err)
	} else {
		if n.keys[k] {
			n.wait()
		}
		n.keys[k] = true
		op := device.BatchRead
		if line != nil {
			op = device.BatchWrite
		}
		if err := n.pipe.Submit(uint64(i), op, k.addr, line); err != nil {
			n.sc.halt("op %d: pipe failed: %v", i, err)
		}
		if restarted != nil {
			n.wait()
		}
	}
	if restarted != nil {
		if err := <-restarted; err != nil {
			n.sc.halt("kill cycle at op %d: restart: %v", i, err)
		}
	}
}

// events fires the fault phases and kill cycles keyed to op i the first
// time the workload reaches it. A kill settles every op in flight, kills
// the server and crashes the device, and lets the restart (recovery, then
// a fresh server on the same address) race op i, which retries through
// the outage; the returned channel reports the restart.
func (n *netStack) events(i int) chan error {
	if i < n.next {
		return nil
	}
	n.next = i + 1
	w := len(n.sc.ops)
	for p, f := range n.phases {
		if i != p*w/len(n.phases) {
			continue
		}
		n.proxy.SetFaults(f)
		if f.Partition {
			// Every schedule follows a partition with a heal phase, so a
			// heal landing after that phase began changes nothing.
			n.healed = make(chan struct{})
			go func() {
				time.Sleep(partitionCap)
				n.proxy.SetFaults(netchaos.Faults{Name: "heal"})
				close(n.healed)
			}()
		}
	}
	kill := false
	for j := 1; j <= n.cfg.Kills; j++ {
		kill = kill || i == j*w/(n.cfg.Kills+1)
	}
	if !kill {
		return nil
	}
	n.wait()
	if n.sc.crashOp >= 0 {
		return nil // from the power loss on, recovery is the runner's
	}
	n.sc.logf("kill/restart cycle at op %d", i)
	if err := n.sup.Kill(); err != nil {
		n.sc.halt("kill cycle at op %d: %v", i, err)
		return nil
	}
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		restarted <- n.sup.Restart()
	}()
	return restarted
}

// wait flushes the pipe: every submitted op reports its outcome.
func (n *netStack) wait() {
	if n.pipe == nil {
		return
	}
	// A fatal pipe error has reached every pending op through deliver.
	n.pipe.Flush()
	clear(n.keys)
}

func (n *netStack) read(k key) (nvm.Line, error) {
	if n.pipe == nil {
		got, _, err := n.clients[0].Read(k.addr)
		return got, err
	}
	if err := n.pipe.Submit(readTag, device.BatchRead, k.addr, nil); err != nil {
		return nvm.Line{}, err
	}
	n.pipe.Flush() // the outcome, a failure included, arrives through deliver
	return n.got, n.gotErr
}

// extraChecks is the exactly-once oracle: the server applied exactly the
// writes the runner saw acknowledged. A retry applied twice pushes applied
// above acked; an acknowledgement without a write the other way.
func (n *netStack) extraChecks(phase string) {
	if applied := n.applied.Value(); applied != n.acked {
		n.sc.res.violate("%s: server applied %d writes, %d acknowledged (a retry applied twice or an ack leaked)",
			phase, applied, n.acked)
	}
}

// NetRun executes one network chaos scenario through the scenario runner:
// the same acknowledged-write, read and recovery oracle as DeviceRun, plus
// the exactly-once check on the server's applied-write counter.
func NetRun(cfg NetConfig) (*DeviceResult, error) {
	sc, n, err := newNetScenario(cfg)
	if err != nil {
		return nil, err
	}
	defer n.close()
	return sc.run(), nil
}

// NetCrashSweep probes the network scenario for its device-wide boundary
// count, then replays it crashing at every stride-th boundary.
func NetCrashSweep(base NetConfig, stride int, logf func(string, ...any)) (*CampaignResult, error) {
	base = base.normalized()
	front := fmt.Sprintf("stop-and-wait (%d clients)", base.Clients)
	if base.Pipeline > 0 {
		front = fmt.Sprintf("pipelined (window %d, batch %d)", base.Pipeline, base.Batch)
	}
	header := fmt.Sprintf("net crash sweep: %s, fault %s, %d kills, ", front, base.FaultName, base.Kills) +
		"%d workload boundaries, stride %d"
	return sweep(header, stride, logf, func(k int) (point, error) {
		cfg := base
		cfg.CrashAt = k
		res, err := NetRun(cfg)
		return res.sweepPoint(NetRepro(cfg), err)
	})
}

// netFaults maps each -net-fault flag value to its fault phases.
var netFaults = map[string][]netchaos.Faults{
	"clean":     {{Name: "clean"}},
	"latency":   {{Name: "latency", Latency: 200 * time.Microsecond, Jitter: 400 * time.Microsecond}},
	"throttle":  {{Name: "throttle", BandwidthBPS: 256 << 10}},
	"corrupt":   {{Name: "corrupt", CorruptEvery: 700}},
	"reset":     {{Name: "reset", ResetAfterBytes: 4000}},
	"truncate":  {{Name: "truncate", TruncateEveryNthFrame: 9}},
	"partition": {{Name: "clean"}, {Name: "partition", Partition: true}, {Name: "heal"}},
	"combined": {
		{Name: "latency", Latency: 100 * time.Microsecond, Jitter: 200 * time.Microsecond},
		{Name: "corrupt", CorruptEvery: 900},
		{Name: "reset", ResetAfterBytes: 6000},
		{Name: "truncate", TruncateEveryNthFrame: 11},
		{Name: "partition", Partition: true},
		{Name: "heal"},
	},
}

// NetSweep runs NetCrashSweep over the standard network sweep — every
// fault family alone, the combined schedule, and the combined schedule
// with two kill/restart cycles — and aggregates the failures, each with
// its one-line repro.
func NetSweep(base NetConfig, stride int, logf func(string, ...any)) (*CampaignResult, error) {
	out := &CampaignResult{}
	faults := []string{"clean", "latency", "throttle", "corrupt", "reset", "truncate", "partition", "combined", "combined"}
	for i, fault := range faults {
		cfg := base
		cfg.FaultName, cfg.Kills = fault, 0
		if i == len(faults)-1 {
			cfg.Kills = 2
		}
		res, err := NetCrashSweep(cfg, stride, logf)
		if err != nil {
			return nil, err
		}
		out.Runs += res.Runs
		out.Failures = append(out.Failures, res.Failures...)
	}
	return out, nil
}
