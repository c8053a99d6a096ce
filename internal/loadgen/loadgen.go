// Package loadgen is a deterministic closed-loop load generator for the
// sharded secure-NVM device service. It replays internal/workload access
// patterns against a live server (or anything else that implements Conn)
// and reports throughput and latency percentiles computed from the
// device's simulated clocks — wall-clock time never enters the report, so
// a run is reproducible bit for bit.
//
// Determinism model: the Ops budget is split into one request stream per
// *shard* (seeded per shard, like internal/runner's block scheduling
// splits work units, not workers), and each connection drives the shards
// it owns in stream order. A shard's controller, sim clock and telemetry
// then depend only on its own stream, so the merged telemetry snapshot
// and the latency report are byte-identical at any connection count,
// stop-and-wait or pipelined.
//
// Every front end — stop-and-wait, pipelined, multi-tenant — is the same
// stream loop (stream.go) and checks every read of a line the run itself
// wrote against the acknowledged-write oracle of internal/oracle, the
// one the chaos harness holds every crash scenario to.
package loadgen

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"

	"soteria/internal/device"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/stats"
	"soteria/internal/telemetry"
	"soteria/internal/workload"
)

// Conn is the slice of the device surface a stop-and-wait run needs:
// devnet.Client (over TCP) and NewLocalConn (in-process) implement it.
type Conn interface {
	Info() (device.Info, error)
	Read(addr uint64) (nvm.Line, sim.Time, error)
	Write(addr uint64, data *nvm.Line) (sim.Time, error)
	Drain(addr uint64) error
	SnapshotJSON() ([]byte, error)
	Close() error
}

// PipeHandler mirrors devnet.PipeHandler so the generator can take a
// pipelined dialer without importing the transport package.
type PipeHandler func(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error)

// PipeConn is the one shape the stream loop drives: submit ops, then
// flush. devnet.Pipe implements it directly; every blocking connection
// is wrapped in an adapter that runs the op inside Submit.
type PipeConn interface {
	// Submit enqueues one op tagged for the completion handler. It may
	// block on window back-pressure, running the handler inline for
	// completions it reaps while waiting.
	Submit(tag uint64, op uint8, addr uint64, line *nvm.Line) error
	// Flush drives the pipe until every submitted op has completed.
	Flush() error
	Close() error
}

// Params configures one run.
type Params struct {
	// Dial opens one connection: the control connection (Info and the
	// final snapshot) and, unless DialPipe is set, each worker's.
	Dial func() (Conn, error)
	// DialPipe, when non-nil, switches the workers to the pipelined
	// front end: each submits through a windowed batching client. The
	// handler passed to DialPipe must be installed as the pipe's
	// completion handler.
	DialPipe func(h PipeHandler) (PipeConn, error)
	// Workers is the number of connections driving the shards —
	// stop-and-wait clients, or pipes under DialPipe; capped at the
	// shard count (extra connections would own no shards). Default 1.
	Workers int
	// Ops is the total operation budget, split across shards as evenly
	// as the stream allows (shard i gets the i-th residue). Default 1000.
	Ops int
	// Seed drives every per-shard stream.
	Seed int64
	// Workload names the internal/workload pattern to replay.
	Workload string
	// Footprint is the per-shard data footprint the generator walks;
	// 0 means the shard's whole capacity.
	Footprint uint64
	// Resilience, when non-nil, is the registry the run's connections
	// report their devnet_client_* counters into (the caller wires it
	// through its Dial). After the run the counters appear in the report
	// as a sorted table — on a healthy network they are all zero, so the
	// table stays deterministic; under faults they quantify the retry
	// traffic the run absorbed.
	Resilience *telemetry.Registry
	// Pipeline and Batch record the window and batch sizes the caller
	// configured on its pipes; they only annotate the report (the pipe
	// itself enforces them).
	Pipeline int
	Batch    int
}

// ResilienceCounter is one named client-resilience counter in a report.
type ResilienceCounter struct {
	Name  string
	Value uint64
}

// LatencySummary describes one operation class's simulated latencies in
// nanoseconds, derived from per-shard log2 histograms.
type LatencySummary struct {
	Count              uint64
	P50, P90, P95, P99 float64
	Max                float64
	MeanSimNanos       float64
	TotalSimNanos      float64
}

// Report is the deterministic outcome of a run.
type Report struct {
	Workload string
	// Mode is "stop-and-wait" (Workers blocking connections) or
	// "pipelined" (Conns windowed batching connections).
	Mode     string
	Shards   int
	Workers  int
	Conns    int
	Pipeline int
	Batch    int
	Ops      int
	Barriers uint64
	Read     LatencySummary
	Write    LatencySummary
	// SimNanos is the busiest shard's total simulated service time — the
	// run's simulated makespan under perfect shard parallelism.
	SimNanos float64
	// Verified counts reads checked against the content oracle (every
	// read of a line the run itself wrote).
	Verified uint64
	// Resilience holds the run's client retry/timeout/reconnect counters
	// (sorted by name) when Params.Resilience was set.
	Resilience []ResilienceCounter
}

// classHist is a stream-local latency histogram: log2 buckets over
// simulated picoseconds. No locks — each stream's stats are owned by the
// one driver running it.
type classHist struct {
	buckets [65]uint64
	count   uint64
	sum     uint64 // ps
	max     uint64 // ps
}

func (h *classHist) observe(t sim.Time) {
	ps := uint64(t)
	h.buckets[bits.Len64(ps)]++
	h.count++
	h.sum += ps
	if ps > h.max {
		h.max = ps
	}
}

func (h *classHist) merge(o *classHist) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the upper bound (in ns) of the bucket holding the
// q-th sample — a deterministic, conservative percentile estimate.
func (h *classHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if n > 0 && seen > target {
			return float64(uint64(1)<<uint(i)) / 1e3
		}
	}
	return float64(h.max) / 1e3
}

func (h *classHist) summary() LatencySummary {
	s := LatencySummary{
		Count: h.count,
		P50:   h.quantile(0.50),
		P90:   h.quantile(0.90),
		P95:   h.quantile(0.95),
		P99:   h.quantile(0.99),
		Max:   float64(h.max) / 1e3,
	}
	s.TotalSimNanos = float64(h.sum) / 1e3
	if h.count > 0 {
		s.MeanSimNanos = s.TotalSimNanos / float64(h.count)
	}
	return s
}

// Run executes one load-generation run and returns the deterministic
// report plus the server's merged telemetry snapshot (canonical JSON),
// fetched over a control connection after every stream finishes.
//
// Each of the Workers connections owns the shard streams congruent to
// its index. Shard ownership puts all of a shard's ops on one connection
// in stream order, and a pipe's batch composition is a pure function of
// the submission sequence (batches seal at MaxBatch ops, not on timers),
// so the per-shard simulated latencies — and therefore the report and
// the snapshot — do not depend on scheduling. Only wall-clock throughput
// does.
func Run(p Params) (*Report, []byte, error) {
	if p.Ops <= 0 {
		p.Ops = 1000
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	wl, err := workload.ByName(p.Workload)
	if err != nil {
		return nil, nil, err
	}

	control, err := p.Dial()
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: control dial: %w", err)
	}
	defer control.Close()
	info, err := control.Info()
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: info: %w", err)
	}
	shards := info.Shards
	p.Workers = min(p.Workers, shards)
	shardLines := info.CapacityBytes / nvm.LineSize / uint64(shards)
	footprint := p.Footprint
	if footprint == 0 || footprint > shardLines*nvm.LineSize {
		footprint = shardLines * nvm.LineSize
	}

	// One deterministic stream per shard, walking the shard's slice of
	// the line interleave; the connection that drives it is an execution
	// detail.
	streams := make([]*stream, shards)
	for i := range streams {
		streams[i] = newStream(fmt.Sprintf("shard %d", i), uint64(i+1), p.Seed,
			wl.New(footprint, p.Seed+int64(i)*0x9e37), p.Ops/shards+btoi(i < p.Ops%shards),
			shardLines, uint64(shards), uint64(i))
	}
	var wg sync.WaitGroup
	errs := make([]error, p.Workers)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runWorker(&p, w, streams)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	snapshot, err := control.SnapshotJSON()
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: snapshot: %w", err)
	}

	// Merge per-shard stats in shard order (same rule as the device's
	// telemetry merge): the report is independent of worker scheduling.
	rep := &Report{Workload: wl.Name, Mode: "stop-and-wait", Shards: shards, Workers: p.Workers, Ops: p.Ops}
	if p.DialPipe != nil {
		rep.Mode = "pipelined"
		rep.Workers, rep.Conns = 0, p.Workers
		rep.Pipeline = p.Pipeline
		rep.Batch = p.Batch
	}
	var reads, writes classHist
	for _, s := range streams {
		reads.merge(&s.reads)
		writes.merge(&s.writes)
		rep.Barriers += s.barriers
		rep.Verified += s.verified
		if busy := float64(s.simBusy) / 1e3; busy > rep.SimNanos {
			rep.SimNanos = busy
		}
	}
	rep.Read = reads.summary()
	rep.Write = writes.summary()
	if p.Resilience != nil {
		snap := p.Resilience.Snapshot()
		for name, v := range snap.Counters {
			rep.Resilience = append(rep.Resilience, ResilienceCounter{Name: name, Value: v})
		}
		sort.Slice(rep.Resilience, func(i, j int) bool { return rep.Resilience[i].Name < rep.Resilience[j].Name })
	}
	return rep, snapshot, nil
}

// runWorker dials connection w and drives the shard streams it owns.
func runWorker(p *Params, w int, streams []*stream) error {
	d := newDriver()
	var target PipeConn
	if p.DialPipe != nil {
		pc, err := p.DialPipe(d.complete)
		if err != nil {
			return fmt.Errorf("loadgen: conn %d dial: %w", w, err)
		}
		target = pc
	} else {
		c, err := p.Dial()
		if err != nil {
			return fmt.Errorf("loadgen: conn %d dial: %w", w, err)
		}
		target = &inline{c: c, drain: c.Drain, h: d.complete}
	}
	defer target.Close()
	var owned []*stream
	for i := w; i < len(streams); i += p.Workers {
		streams[i].target = target
		owned = append(owned, streams[i])
	}
	return d.run(owned, nil)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteMarkdown renders the report as the machine-parsable tables the CLI
// prints on stdout.
func (r *Report) WriteMarkdown(w io.Writer) error {
	front := fmt.Sprintf("%d workers", r.Workers)
	if r.Mode == "pipelined" {
		front = fmt.Sprintf("%d conns × window %d × batch %d", r.Conns, r.Pipeline, r.Batch)
	}
	t := stats.NewTable(
		fmt.Sprintf("loadgen: %s — %d ops, %d shards, %s", r.Workload, r.Ops, r.Shards, front),
		"op", "count", "mean (ns)", "p50 (ns)", "p90 (ns)", "p95 (ns)", "p99 (ns)", "max (ns)")
	addRow := func(name string, s LatencySummary) {
		t.AddRow(name, s.Count, stats.FormatFloat(s.MeanSimNanos), stats.FormatFloat(s.P50),
			stats.FormatFloat(s.P90), stats.FormatFloat(s.P95), stats.FormatFloat(s.P99), stats.FormatFloat(s.Max))
	}
	addRow("read", r.Read)
	addRow("write", r.Write)
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	tp := stats.NewTable("throughput (simulated)",
		"metric", "value")
	tp.AddRow("barriers", r.Barriers)
	tp.AddRow("sim makespan (ns)", stats.FormatFloat(r.SimNanos))
	if r.SimNanos > 0 {
		opsDone := float64(r.Read.Count + r.Write.Count)
		tp.AddRow("ops per sim-ms", stats.FormatFloat(opsDone/(r.SimNanos/1e6)))
	}
	if err := tp.WriteMarkdown(w); err != nil {
		return err
	}
	if len(r.Resilience) > 0 {
		tr := stats.NewTable("client resilience", "counter", "value")
		for _, c := range r.Resilience {
			tr.AddRow(c.Name, c.Value)
		}
		return tr.WriteMarkdown(w)
	}
	return nil
}

// localConn adapts an in-process *device.Device to Conn. Close is a
// no-op: the caller owns the device.
type localConn struct{ dev *device.Device }

// NewLocalConn wraps a device as a Conn, so the generator (and its tests)
// can drive it without a socket.
func NewLocalConn(dev *device.Device) Conn { return localConn{dev} }

func (c localConn) Info() (device.Info, error)                   { return c.dev.Info(), nil }
func (c localConn) Read(addr uint64) (nvm.Line, sim.Time, error) { return c.dev.Read(addr) }
func (c localConn) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	return c.dev.Write(addr, data)
}
func (c localConn) Drain(addr uint64) error       { return c.dev.Drain(addr) }
func (c localConn) SnapshotJSON() ([]byte, error) { return c.dev.Snapshot().MarshalIndentJSON() }
func (c localConn) Close() error                  { return nil }
