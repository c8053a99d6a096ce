// Package loadgen is a deterministic closed-loop load generator for the
// sharded secure-NVM device service. It replays internal/workload access
// patterns against a live server (or anything else that implements Conn)
// and reports throughput and latency percentiles computed from the
// device's simulated clocks — wall-clock time never enters the report, so
// a run is reproducible bit for bit.
//
// Determinism model: the Ops budget is split into one request stream per
// *shard* (seeded per shard, like internal/runner's block scheduling
// splits work units, not workers), and each worker drives the shards it
// owns closed-loop — at most one request in flight per shard, in stream
// order. A shard's controller, sim clock and telemetry then depend only
// on its own stream, so the merged telemetry snapshot and the latency
// report are byte-identical at any -workers setting.
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
	"soteria/internal/trace"
	"soteria/internal/workload"
)

// Conn is the slice of the device surface the generator needs — the one
// interface that keeps the over-the-wire and in-process implementations
// interchangeable: devnet.Client (over TCP) and LocalConn (in-process,
// for tests) both implement it.
type Conn interface {
	Info() (device.Info, error)
	Read(addr uint64) (nvm.Line, sim.Time, error)
	Write(addr uint64, data *nvm.Line) (sim.Time, error)
	Drain(addr uint64) error
	SnapshotJSON() ([]byte, error)
	Close() error
}

// Params configures one run.
type Params struct {
	// Dial opens one connection; it is called once per worker plus once
	// for the control connection.
	Dial func() (Conn, error)
	// Workers drives the shards concurrently; capped at the shard count
	// (extra workers would own no shards). Default 1.
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
	// Logf, when non-nil, receives progress lines (stderr material).
	Logf func(format string, args ...any)
	// Resilience, when non-nil, is the registry the run's connections
	// report their devnet_client_* counters into (the caller wires it
	// through its Dial). After the run the counters appear in the report
	// as a sorted table — on a healthy network they are all zero, so the
	// table stays deterministic; under faults they quantify the retry
	// traffic the run absorbed.
	Resilience *telemetry.Registry

	// DialPipe, when non-nil, switches the run to the pipelined open-loop
	// mode: Conns connection goroutines submit through windowed batching
	// clients instead of Workers stop-and-wait loops. The handler passed
	// to DialPipe must be installed as the pipe's completion handler.
	DialPipe func(h PipeHandler) (PipeConn, error)
	// Conns is the pipelined connection count (pipelined mode only);
	// capped at the shard count. Default 1.
	Conns int
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
	// Mode is "stop-and-wait" (closed loop, Workers connections) or
	// "pipelined" (open loop, Conns windowed batching connections).
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
	// Resilience holds the run's client retry/timeout/reconnect counters
	// (sorted by name) when Params.Resilience was set.
	Resilience []ResilienceCounter
}

// classHist is a worker-local latency histogram: log2 buckets over
// simulated picoseconds. No locks — each shard's stats are owned by the
// one worker driving it.
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

// shardStream is one shard's deterministic request stream plus the stats
// it accumulates. Exactly one worker touches it.
type shardStream struct {
	shard     int
	remaining int
	gen       trace.Generator
	lines     uint64 // shard-local line count
	stride    uint64 // device shard count, for the global mapping
	seed      int64
	writeIdx  int
	reads     classHist
	writes    classHist
	barriers  uint64
	simBusy   uint64 // ps, sum of op latencies on this shard
}

// globalAddr maps a generator byte address into this shard's slice of the
// device address space (the inverse of the device's line interleave).
func (s *shardStream) globalAddr(addr uint64) uint64 {
	local := (addr / nvm.LineSize) % s.lines
	return (local*s.stride + uint64(s.shard)) * nvm.LineSize
}

// lineContent derives the deterministic payload of this shard's i-th
// write (splitmix64, like the chaos harness's content oracle).
func (s *shardStream) lineContent(i int) nvm.Line {
	var l nvm.Line
	x := uint64(s.seed)*0x9e3779b97f4a7c15 + uint64(s.shard+1)*0x94d049bb133111eb + uint64(i+1)*0xbf58476d1ce4e5b9
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

// step executes the stream's next operation on conn.
func (s *shardStream) step(conn Conn) error {
	var rec trace.Record
	if !s.gen.Next(&rec) {
		s.remaining = 0
		return nil
	}
	switch rec.Op {
	case trace.OpRead:
		addr := s.globalAddr(rec.Addr)
		_, lat, err := conn.Read(addr)
		if err != nil {
			return fmt.Errorf("shard %d read %#x: %w", s.shard, addr, err)
		}
		s.reads.observe(lat)
		s.simBusy += uint64(lat)
	case trace.OpWrite, trace.OpWritePersist:
		addr := s.globalAddr(rec.Addr)
		line := s.lineContent(s.writeIdx)
		s.writeIdx++
		lat, err := conn.Write(addr, &line)
		if err != nil {
			return fmt.Errorf("shard %d write %#x: %w", s.shard, addr, err)
		}
		s.writes.observe(lat)
		s.simBusy += uint64(lat)
	case trace.OpBarrier:
		if err := conn.Drain(uint64(s.shard) * nvm.LineSize); err != nil {
			return fmt.Errorf("shard %d drain: %w", s.shard, err)
		}
		s.barriers++
	}
	s.remaining--
	return nil
}

// Run executes one load-generation run and returns the deterministic
// report plus the server's merged telemetry snapshot (canonical JSON),
// fetched over a control connection after every stream finishes.
func Run(p Params) (*Report, []byte, error) {
	if p.Ops <= 0 {
		p.Ops = 1000
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	logf := p.Logf
	if logf == nil {
		logf = func(string, ...any) {}
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
	if p.Workers > shards {
		p.Workers = shards
	}
	shardLines := info.CapacityBytes / nvm.LineSize / uint64(shards)
	footprint := p.Footprint
	if footprint == 0 || footprint > shardLines*nvm.LineSize {
		footprint = shardLines * nvm.LineSize
	}

	// One deterministic stream per shard; the worker that drives it is an
	// execution detail.
	streams := make([]*shardStream, shards)
	for i := range streams {
		streams[i] = &shardStream{
			shard:     i,
			remaining: p.Ops/shards + btoi(i < p.Ops%shards),
			gen:       wl.New(footprint, p.Seed+int64(i)*0x9e37),
			lines:     shardLines,
			stride:    uint64(shards),
			seed:      p.Seed,
		}
	}
	if p.DialPipe != nil {
		if p.Conns <= 0 {
			p.Conns = 1
		}
		if p.Conns > shards {
			p.Conns = shards
		}
		logf("loadgen: %s over %d shards, %d ops, %d pipelined conns (window %d, batch %d)",
			wl.Name, shards, p.Ops, p.Conns, p.Pipeline, p.Batch)
		if err := runPipelined(&p, streams, shards); err != nil {
			return nil, nil, err
		}
	} else {
		logf("loadgen: %s over %d shards, %d ops, %d workers", wl.Name, shards, p.Ops, p.Workers)
		if err := runStopAndWait(&p, streams, shards); err != nil {
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
		rep.Workers = 0
		rep.Conns = p.Conns
		rep.Pipeline = p.Pipeline
		rep.Batch = p.Batch
	}
	var reads, writes classHist
	for _, s := range streams {
		reads.merge(&s.reads)
		writes.merge(&s.writes)
		rep.Barriers += s.barriers
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

// runStopAndWait is Run's closed-loop branch: Workers connection
// goroutines each drive the shard streams they own, one op in flight
// per shard, round-robin across the owned shards.
func runStopAndWait(p *Params, streams []*shardStream, shards int) error {
	var wg sync.WaitGroup
	errs := make([]error, p.Workers)
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := p.Dial()
			if err != nil {
				errs[w] = fmt.Errorf("loadgen: worker %d dial: %w", w, err)
				return
			}
			defer conn.Close()
			// Round-robin the owned shards, one op per visit, until all
			// are exhausted: closed loop per shard, fair across shards.
			owned := make([]*shardStream, 0, shards/p.Workers+1)
			for i := w; i < shards; i += p.Workers {
				owned = append(owned, streams[i])
			}
			for {
				live := 0
				for _, s := range owned {
					if s.remaining <= 0 {
						continue
					}
					live++
					if err := s.step(conn); err != nil {
						errs[w] = err
						return
					}
				}
				if live == 0 {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
