package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// fillLine is the content oracle: a line's bytes are a pure function of its
// address and how many times it has been written (splitmix64 stream).
func fillLine(l *nvm.Line, addr uint64, version uint32) {
	x := addr*0x9E3779B97F4A7C15 + uint64(version)*0xD1B54A32D192ED03
	for i := 0; i < nvm.LineSize; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(l[i:], z^z>>31)
	}
}

// ringSize bounds the ops one generator may have outstanding; the pipe keeps
// at most (pipeWindow+1)*batchOps = 160.
const ringSize = 256

// pending is what a generator remembers about an op until its outcome
// arrives.
type pending struct {
	line    uint32
	version uint32
	write   bool
	t0      int64 // submit time, ns since the generator's epoch; 0 = not sampled
}

// gen is one closed-loop generator: a seeded op stream over the lines it
// owns, the oracle for those lines, and the books for the ops it issued.
type gen struct {
	w       *workload
	rng     *rand.Rand
	pos     uint32   // next line of a cyclic working set
	addrs   []uint64 // owned line index -> device address
	version []uint32 // writes acknowledged or in flight, per owned line
	conn    conn
	name    [2]string // span names for read, write
	epoch   time.Time

	ring   [ringSize]pending
	buf    nvm.Line
	seq    uint64 // next tag
	issued uint64 // ops drawn from the stream, for the read/write mix

	ops, failed uint64
	setupOps    uint64 // ops the set-up issued, before ops was reset for the timed phase
	simPS       int64
	lat         []int64 // sampled caller-observed latencies, ns
	firstErr    error

	// touched lists the lines addressed since the last beginCycle, each
	// once.
	touched   []uint32
	touchedAt []uint32
	cycle     uint32

	traced bool
	spans  []span // one per sampled op when traced
	parent int32  // the segment span sampled ops belong to
}

// ownedAddr maps generator g's i-th line to a device address. The device
// interleaves lines over shards; g owns shards s with s % gens == g and
// lines*gens/shards lines on each.
func ownedAddr(w *workload, g int, i uint64) uint64 {
	perGen := uint64(w.shards / w.gens)
	shard := (i%perGen)*uint64(w.gens) + uint64(g)
	local := i / perGen
	return (local*uint64(w.shards) + shard) * nvm.LineSize
}

func newGen(w *workload, k kind, g, epoch int, seed int64) *gen {
	n := w.lines / uint64(w.gens)
	gn := &gen{
		w:         w,
		rng:       rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)*1009 + int64(g))),
		addrs:     make([]uint64, n),
		version:   make([]uint32, n),
		touchedAt: make([]uint32, n),
		name:      [2]string{k.String() + ".read", k.String() + ".write"},
		epoch:     time.Now(),
	}
	for i := range gn.addrs {
		gn.addrs[i] = ownedAddr(w, g, uint64(i))
	}
	gn.pos = uint32(gn.rng.Intn(int(n)))
	return gn
}

func (g *gen) fail(err error) {
	g.failed++
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// next draws the next op of the workload's stream.
func (g *gen) next() (line uint32, write bool) {
	if g.w.cyclic {
		line = g.pos
		g.pos = (g.pos + 1) % uint32(len(g.addrs))
	} else {
		line = uint32(g.rng.Intn(len(g.addrs)))
	}
	k := g.issued
	g.issued++
	switch re := uint64(g.w.readEvery); re {
	case 0:
		write = true
	case 1:
		write = false
	default:
		write = k%re != re-1
	}
	return line, write
}

// issue submits one op. Every conn is done with the line buffer when submit
// returns, so one buffer per generator serves every op.
func (g *gen) issue(line uint32, write bool) {
	tag := g.seq
	g.seq++
	p := &g.ring[tag%ringSize]
	*p = pending{line: line, write: write}
	if write {
		g.version[line]++
		fillLine(&g.buf, g.addrs[line], g.version[line])
	}
	if g.touchedAt[line] != g.cycle {
		g.touchedAt[line] = g.cycle
		g.touched = append(g.touched, line)
	}
	p.version = g.version[line]
	if tag%uint64(g.w.sampleEvery) == 0 {
		p.t0 = int64(time.Since(g.epoch)) + 1
	}
	if err := g.conn.submit(tag, write, g.addrs[line], &g.buf); err != nil {
		g.fail(fmt.Errorf("submit: %w", err))
	}
}

// done is the generator's doneFunc: it checks the outcome against the
// oracle and books latency.
func (g *gen) done(tag uint64, data *nvm.Line, lat sim.Time, err error) {
	p := &g.ring[tag%ringSize]
	g.ops++
	g.simPS += int64(lat)
	switch {
	case err != nil:
		g.fail(fmt.Errorf("op %d addr %#x: %w", tag, g.addrs[p.line], err))
	case !p.write:
		var want nvm.Line
		fillLine(&want, g.addrs[p.line], p.version)
		if data == nil || !bytes.Equal(data[:], want[:]) {
			g.fail(fmt.Errorf("op %d addr %#x: read does not match version %d", tag, g.addrs[p.line], p.version))
		}
	}
	if p.t0 != 0 {
		end := int64(time.Since(g.epoch)) + 1
		g.lat = append(g.lat, end-p.t0)
		if g.traced {
			name := g.name[0]
			if p.write {
				name = g.name[1]
			}
			base := g.epoch.UnixNano()
			g.spans = append(g.spans, span{Name: name, Start: base + p.t0, End: base + end, Parent: g.parent, OpID: int64(tag)})
		}
	}
}

// run issues n ops of the stream and waits for all of them.
func (g *gen) run(n int) {
	for i := 0; i < n; i++ {
		g.issue(g.next())
	}
	g.flush()
}

// lapEnd rounds n ops up to the end of a lap of a cyclic walk, so that every
// crash finds the walk at the same line, and the same lines dirty, whatever
// the seed. A random stream has no laps.
func (g *gen) lapEnd(n int) int {
	if !g.w.cyclic {
		return n
	}
	lap := len(g.addrs)
	return n + (lap-(int(g.pos)+n)%lap)%lap
}

func (g *gen) flush() {
	if err := g.conn.flush(); err != nil {
		g.fail(fmt.Errorf("flush: %w", err))
	}
}

// writeAll writes every owned line once, in address order.
func (g *gen) writeAll() {
	for i := range g.addrs {
		g.issue(uint32(i), true)
	}
	g.flush()
}

// readLines reads the given lines back through the oracle.
func (g *gen) readLines(lines []uint32) {
	for _, l := range lines {
		g.issue(l, false)
	}
	g.flush()
}

func (g *gen) beginCycle() {
	g.cycle++
	g.touched = g.touched[:0]
}

// each runs fn once per generator, concurrently when there are several, and
// returns when all have finished.
func each(gens []*gen, fn func(*gen)) {
	if len(gens) == 1 {
		fn(gens[0])
		return
	}
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *gen) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile (nearest rank) of ns samples.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return float64(s[int(q*float64(len(s)-1)+0.5)])
}

// runOpts selects what one measurement does.
type runOpts struct {
	kind     kind
	traced   bool    // attach telemetry registries and record spans
	scale    float64 // share of the frozen op counts to run: 1 for the command, less in tests
	epochs   int     // fresh stacks to build and drive, one after the other
	recovery bool    // run the crash/recover cycles and the final read-back
}

// result is one measurement of one kind on one workload: every epoch's
// segments and cycles side by side, and the run's figures drawn from them.
type result struct {
	SegmentOps  int       `json:"segment_ops"` // ops per timed segment, all generators
	SegmentS    []float64 `json:"segment_s"`   // wall seconds of each timed segment
	SegmentP50  []float64 `json:"segment_p50_us"`
	RecoverAll  []float64 `json:"recover_ms_all"`
	SetupAll    []float64 `json:"setup_s_all"`
	OpsPerS     float64   `json:"ops_per_s"`
	CallerNS    float64   `json:"caller_ns_per_op"` // fastest segment wall x generators / ops
	P50us       float64   `json:"op_p50_us"`
	LatSamples  int       `json:"latency_samples"`
	SimNS       float64   `json:"sim_ns_per_op"`
	NVMWrites   float64   `json:"nvm_writes_per_op"`
	RecoverMS   float64   `json:"recover_ms"`
	Tracked     int       `json:"tracked_entries"`
	Recovered   int       `json:"recovered_blocks"`
	SetupS      float64   `json:"setup_s"`
	Attempted   uint64    `json:"attempted"`
	Failed      uint64    `json:"failed"`
	FirstErr    string    `json:"first_error,omitempty"`
	AllocsPerOp float64   `json:"allocs_per_op"`
	BytesPerOp  float64   `json:"bytes_per_op"`
	CPUUtil     float64   `json:"cpu_util"`

	before, after memctrl.Stats     // the controllers' books around the timed phases, summed over epochs
	counts        map[string]uint64 // telemetry counters over the timed phases
	gauges        map[string]int64  // telemetry gauges at the end of the last one
	spans         []span

	// Sums over the epochs that the figures above are drawn from.
	timedOps, allOps    uint64 // ops of the timed phases; of those and the set-ups
	simPS               int64
	lines               uint64 // TotalNVMWrites() at the end of each timed phase
	mallocs, allocBytes uint64
	cpuS, wallS         float64
	firstErr            error
}

// timed returns how far one of the controllers' counters moved during the
// timed phases.
func (r *result) timed(f func(memctrl.Stats) uint64) float64 {
	return float64(f(r.after) - f(r.before))
}

func (r *result) check(what string, err error) {
	if err != nil {
		r.Failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", what, err)
		}
	}
}

// segmentOps is the frozen op count of one timed segment per generator.
func (w *workload) segmentOps(scale float64) int {
	return max(int(float64(w.epochOps)*scale)/segments/w.gens, batchOps)
}

// cycleOps is the frozen op count before each crash/recover cycle, per
// generator: enough of the stream to dirty the whole metadata cache again
// (2 000 writes on ctrl-write-evict against 128 cached lines).
func (w *workload) cycleOps(scale float64) int {
	return max(w.segmentOps(scale)/4, batchOps)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// setUp builds the stack, writes every line once and runs a segment of the
// stream so caches, queues and connections are warm. A failure here is
// fatal: the timed phase would measure a broken system.
func setUp(w *workload, seed int64, epoch int, o runOpts) ([]*gen, *stack, error) {
	gens := make([]*gen, w.gens)
	done := make([]doneFunc, w.gens)
	for g := range gens {
		gens[g] = newGen(w, o.kind, g, epoch, seed)
		done[g] = gens[g].done
	}
	st, err := buildStack(w, o.kind, o.traced, done)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build %s: %w", w.name, o.kind, err)
	}
	for g := range gens {
		gens[g].conn = st.conns[g]
	}
	warm := w.segmentOps(o.scale)
	each(gens, func(g *gen) {
		g.writeAll()
		g.run(warm)
	})
	for _, g := range gens {
		if g.failed > 0 {
			st.close()
			return nil, nil, fmt.Errorf("%s: set-up on %s: %d ops failed, first: %w", w.name, o.kind, g.failed, g.firstErr)
		}
		g.setupOps, g.ops, g.simPS, g.lat = g.ops, 0, 0, g.lat[:0]
		g.traced = o.traced
	}
	return gens, st, nil
}

// measure runs workload w's op stream through one kind, o.epochs times over
// on a fresh stack each time, and draws the run's figures from all of them.
//
// The throughput, latency and recovery figures are those of the least
// disturbed segment or cycle of the run, not the median the issue asked for:
// this host runs identical work at two speeds, the slow one added from
// outside the process and lasting from seconds to tens of minutes, and over
// ten-seed sweeps the median of a run's segments spread three times as wide
// as their minimum (README "Noise"). Segments are short so that a busy host
// still leaves some of them alone, and long enough to hold the program's
// own periodic costs (a garbage collection every ~15 ms on net-pipe).
func measure(w *workload, seed int64, o runOpts) (*result, error) {
	res := &result{SegmentOps: w.segmentOps(o.scale) * w.gens, counts: map[string]uint64{}}
	var tr tracer
	run := tr.begin("run", 0)
	for e := 0; e < o.epochs; e++ {
		if err := res.epoch(w, seed, e, o, &tr, run); err != nil {
			return nil, err
		}
	}
	tr.end(run)

	best := slices.Min(res.SegmentS)
	res.OpsPerS = float64(res.SegmentOps) / best
	res.CallerNS = best * 1e9 * float64(w.gens) / float64(res.SegmentOps)
	res.P50us = slices.Min(res.SegmentP50)
	if o.recovery {
		res.RecoverMS = slices.Min(res.RecoverAll)
	}
	res.SetupS = median(res.SetupAll)
	fops := float64(res.timedOps)
	res.SimNS = float64(res.simPS) / 1e3 / fops
	// Counted since each stack was built, set-up included: the timed phase of a
	// reads-only workload writes nothing, and an end-to-end metric may not
	// read 0. Set-up is about one per cent of the ops on the write workloads.
	res.NVMWrites = float64(res.lines) / float64(res.allOps)
	res.AllocsPerOp = float64(res.mallocs) / fops
	res.BytesPerOp = float64(res.allocBytes) / fops
	res.CPUUtil = res.cpuS / res.wallS / float64(runtime.GOMAXPROCS(0))
	if res.firstErr != nil {
		res.FirstErr = res.firstErr.Error()
	}
	if o.traced {
		res.spans = tr.merge(res.spans)
	}
	return res, nil
}

// epoch is one pass over a fresh stack: set-up, the timed segments, then
// (outside the timed segments) the durability checks. Epoch e draws its own
// stream from the seed, so a run covers more of the address space than one
// stream would and no controller is driven past what has been soaked clean.
func (res *result) epoch(w *workload, seed int64, e int, o runOpts, tr *tracer, run int32) error {
	runtime.GC() // the previous epoch's stack is gone before this one's is built, so peak memory is one stack's
	sp := tr.begin("setup", run)
	t0 := time.Now()
	gens, st, err := setUp(w, seed, e, o)
	if err != nil {
		return err
	}
	defer st.close()
	res.SetupAll = append(res.SetupAll, time.Since(t0).Seconds())
	tr.end(sp)

	// Timed phase.
	n := w.segmentOps(o.scale)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0, c0 := st.stats(), st.counts()
	cpu0, wall0 := cpuSeconds(), time.Now()
	timed := tr.begin("timed", run)
	var lat []int64
	for seg := 0; seg < segments; seg++ {
		sp := tr.begin("segment", timed)
		for _, g := range gens {
			g.parent = sp
		}
		t0 := time.Now()
		each(gens, func(g *gen) { g.run(n) })
		wall := time.Since(t0)
		tr.end(sp)
		res.SegmentS = append(res.SegmentS, wall.Seconds())
		lat = lat[:0]
		for _, g := range gens {
			lat = append(lat, g.lat...)
			g.lat = g.lat[:0]
		}
		res.LatSamples += len(lat)
		res.SegmentP50 = append(res.SegmentP50, quantile(lat, 0.5)/1e3)
	}
	tr.end(timed)
	res.wallS += time.Since(wall0).Seconds()
	res.cpuS += cpuSeconds() - cpu0
	s1, c1 := st.stats(), st.counts()
	runtime.ReadMemStats(&m1)

	for _, g := range gens {
		res.timedOps += g.ops
		res.allOps += g.setupOps + g.ops
		res.simPS += g.simPS
	}
	addStats(&res.before, s0)
	addStats(&res.after, s1)
	res.lines += s1.TotalNVMWrites()
	res.mallocs += m1.Mallocs - m0.Mallocs
	res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	res.gauges = c1.Gauges
	for k, v := range c1.Counters {
		res.counts[k] += v - c0.Counters[k]
	}

	// Durability checks: nothing below is timed into the figures above.
	sp = tr.begin("verify", run)
	res.check("flush", st.flush())
	res.check("VerifyAll", st.verify())
	tr.end(sp)

	if o.recovery {
		sp := tr.begin("recovery", run)
		cycleOps := w.cycleOps(o.scale)
		for c := 0; c < recoverCycles; c++ {
			each(gens, func(g *gen) {
				g.beginCycle()
				g.run(g.lapEnd(cycleOps))
			})
			t0 := time.Now()
			err := st.crash()
			if err == nil {
				res.Tracked, res.Recovered, err = st.recover() // the last cycle's are reported
			}
			res.RecoverAll = append(res.RecoverAll, float64(time.Since(t0).Nanoseconds())/1e6)
			res.check("crash/recover", err)
			each(gens, func(g *gen) { g.readLines(g.touched) })
		}
		// Final read-back: every line of a small working set, a strided
		// 4096-line sample of a large one.
		each(gens, func(g *gen) {
			step := (len(g.addrs)*w.gens + 4095) / 4096
			var lines []uint32
			for i := 0; i < len(g.addrs); i += step {
				lines = append(lines, uint32(i))
			}
			g.readLines(lines)
		})
		res.check("flush after recovery", st.flush())
		res.check("VerifyAll after recovery", st.verify())
		tr.end(sp)
	}

	for _, g := range gens {
		res.Attempted += g.ops
		res.Failed += g.failed
		if res.firstErr == nil {
			res.firstErr = g.firstErr
		}
		res.spans = append(res.spans, g.spans...)
	}
	return nil
}
