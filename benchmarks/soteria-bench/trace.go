package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"soteria/internal/memctrl"
)

// span is one interval recorded by the benchmark's own code around a call
// into a layer (or around one of its own phases). Parent is the id of the
// enclosing span, 0 for the root; OpID is the generator's op tag, -1 for
// phases.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	OpID   int64  `json:"op_id"`
}

// tracer records the phase spans of one measurement on its main goroutine.
// Generators keep their op spans privately; merge numbers them at the end.
type tracer struct{ spans []span }

func (t *tracer) begin(name string, parent int32) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: time.Now().UnixNano(), Parent: parent, OpID: -1})
	return id
}

func (t *tracer) end(id int32) { t.spans[id-1].End = time.Now().UnixNano() }

func (t *tracer) merge(ops []span) []span {
	all := t.spans
	for _, s := range ops {
		s.ID = int32(len(all) + 1)
		all = append(all, s)
	}
	return all
}

// budgetLine is one row of the stacked budget: a layer's own cost per
// workload op.
type budgetLine struct {
	Layer string  `json:"layer"`
	NS    float64 `json:"ns_per_op"`
	How   string  `json:"how"`
}

// traceReport is what a traced run writes to benchmarks/out/.
type traceReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Ladder   map[string]*result `json:"ladder"` // kind -> untraced replay of the op stream
	Traced   *result            `json:"traced"` // top kind with telemetry and spans on
	Rungs    map[string]rung    `json:"rungs"`
	Budget   []budgetLine       `json:"budget"`
	Counts   map[string]uint64  `json:"counts"`
	Spans    []span             `json:"spans"`
}

// tally sums the output checks of every measurement a command made.
type tally struct {
	attempted, failed uint64
	firstErr          string
}

func (t *tally) add(r *result) {
	t.attempted += r.Attempted
	t.failed += r.Failed
	if t.firstErr == "" {
		t.firstErr = r.FirstErr
	}
}

// runTrace produces every per-layer metric for one workload: it makes the
// measurements, then layerMetrics turns them into numbers.
func runTrace(w *workload, seed int64, scale float64, out io.Writer, outDir string) (map[string]float64, tally, error) {
	var t tally
	rep := &traceReport{Workload: w.name, Seed: seed, Ladder: map[string]*result{}}

	// One epoch of the op stream through the top kind, then one layer lower
	// each time.
	kinds := append([]kind{w.top}, w.ladder...)
	byKind := map[kind]*result{}
	for _, k := range kinds {
		r, err := measure(w, seed, runOpts{kind: k, scale: scale, epochs: 1})
		if err != nil {
			return nil, t, err
		}
		t.add(r)
		byKind[k] = r
		rep.Ladder[k.String()] = r
	}
	// The top kind again with telemetry attached and spans recorded.
	traced, err := measure(w, seed, runOpts{kind: w.top, traced: true, scale: scale, epochs: 1, recovery: true})
	if err != nil {
		return nil, t, err
	}
	t.add(traced)
	rep.Traced, rep.Counts, rep.Spans = traced, traced.counts, traced.spans

	// Stand-alone rungs.
	rungs, err := microRungs(w, seed)
	if err != nil {
		return nil, t, fmt.Errorf("rungs: %w", err)
	}
	for _, sr := range stackRungs {
		rw := sr.w
		rw.name = sr.metric
		r, err := measure(&rw, seed, runOpts{kind: sr.kind, scale: scale, epochs: 1})
		if err != nil {
			return nil, t, err
		}
		t.add(r)
		rungs[sr.metric] = rung{NS: r.CallerNS}
	}
	rep.Rungs = rungs

	m, budget := layerMetrics(kinds, byKind, traced, rungs)
	rep.Budget = budget
	var pings int
	if m["devnet.rtt_p50_us"], m["devnet.rtt_p99_us"], pings, err = rttRung(); err != nil {
		return nil, t, fmt.Errorf("rtt rung: %w", err)
	}
	m["devnet.rtt_samples"] = float64(pings)

	printLadder(out, w, byKind[w.top], traced, rep.Budget, m)
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0 // a layer this workload bypasses
		}
	}
	return m, t, writeTrace(outDir, rep)
}

// layerMetrics computes the per-layer metrics and the stacked budget from
// the ladder (byKind, in the order kinds), the traced run's counts and the
// stand-alone rungs.
func layerMetrics(kinds []kind, byKind map[kind]*result, traced *result, rungs map[string]rung) (map[string]float64, []budgetLine) {
	m := map[string]float64{}
	for name, r := range rungs {
		m[name] = r.NS
	}
	plain := byKind[kinds[0]]

	// Work counts per op, from the traced run's telemetry and books.
	ops := float64(traced.SegmentOps * segments)
	c := traced.counts
	per := func(names ...string) float64 {
		var n uint64
		for _, name := range names {
			n += c[name]
		}
		return float64(n) / ops
	}
	var macs uint64
	for k, v := range c {
		if strings.HasPrefix(k, "ctrenc_mac_") {
			macs += v
		}
	}
	book := func(f func(memctrl.Stats) uint64) float64 { return traced.timed(f) / ops }
	var (
		nvmW    = per("nvm_writes_total")
		nvmR    = per("nvm_reads_total")
		macsOp  = float64(macs) / ops
		otps    = per("ctrenc_otp_total")
		bmtU    = per("bmt_updates_total")
		bmtV    = per("bmt_verifies_total")
		shW     = per("shadow_entry_writes_total")
		shI     = per("shadow_invalidations_total")
		lookups = per("metacache_hits_total", "metacache_misses_total")
		pushes  = per("wpq_inserts_total", "wpq_coalesced_total")
		codec   = per("shadow_entry_writes_total", "metacache_misses_total", "metacache_writebacks_total") / 2
	)
	m["nvm.writes_per_op"], m["nvm.reads_per_op"] = nvmW, nvmR
	m["nvm.corrected_lines"] = float64(c["nvm_corrected_lines_total"])
	m["shadow.entry_writes_per_op"], m["shadow.invalidations_per_op"] = shW, shI
	if lookups > 0 {
		m["metacache.hit_ratio"] = per("metacache_hits_total") / lookups
	}
	m["metacache.dirty_evictions_per_op"] = per("metacache_dirty_tree_evictions_total")
	m["wpq.stalls_per_kop"] = per("wpq_stalls_total") * 1000
	m["wpq.coalesced_per_op"] = per("wpq_coalesced_total")
	m["wpq.max_depth"] = float64(traced.gauges["wpq_depth_max"])
	m["memctrl.clone_writes_per_op"] = book(func(s memctrl.Stats) uint64 { return s.NVMWrites[memctrl.WCClone] })
	m["memctrl.forced_wb_per_kop"] = book(func(s memctrl.Stats) uint64 { return s.ForcedWB }) * 1000
	m["memctrl.page_reencrypt_per_kop"] = book(func(s memctrl.Stats) uint64 { return s.PageReencrypt }) * 1000
	m["memctrl.recovered_blocks"] = float64(traced.Recovered)
	m["memctrl.tracked_entries"] = float64(traced.Tracked)
	m["device.busy_rejects"] = float64(c["device_busy_rejects_total"])
	m["devnet.retries"] = float64(c["devnet_client_retries_total"])
	m["devnet.batch_retransmits"] = float64(c["devnet_client_batch_retransmits_total"])
	m["devnet.reconnects"] = float64(c["devnet_client_reconnects_total"])
	m["devnet.dedup_hits"] = float64(c["devnet_dedup_hits"])
	m["devnet.cpu_util"] = plain.CPUUtil
	m["trace_overhead_pct"] = (plain.OpsPerS - traced.OpsPerS) / plain.OpsPerS * 100

	// The ladder: a layer's own cost is its rung minus the rung below.
	ctrl := byKind[kindCtrl]
	m["memctrl.allocs_per_op"] = ctrl.AllocsPerOp
	if dev := byKind[kindBatch]; dev != nil {
		m["device.self_ns_per_op"] = dev.CallerNS - ctrl.CallerNS
		m["device.allocs_per_op"] = dev.AllocsPerOp - ctrl.AllocsPerOp
		m["device.bytes_per_op"] = dev.BytesPerOp - ctrl.BytesPerOp
		net := byKind[kindPipe]
		m["devnet.self_ns_per_op"] = net.CallerNS - dev.CallerNS
		m["devnet.allocs_per_op"] = net.AllocsPerOp - dev.AllocsPerOp
	}

	// The budget under memctrl: work counts times each layer's own cost.
	// A rung's own cost is its time minus what the layers it called took.
	ns := func(name string) float64 { return rungs[name].NS }
	own := func(name string) float64 {
		r := rungs[name]
		return r.NS - r.NVMWrites*ns("nvm.write_ns") - r.NVMReads*ns("nvm.read_ns") - r.MACs*ns("ctrenc.mac_ns")
	}
	bmtUpdateOwn := own("itree.bmt_update_ns")
	budget := []budgetLine{
		{"memctrl and below", ctrl.CallerNS,
			"the bare-controller rung"},
		{"ecc", nvmW*ns("ecc.encode_ns") + nvmR*ns("ecc.decode_clean_ns"),
			"nvm writes x encode + nvm reads x clean decode"},
		{"nvm", nvmW*(ns("nvm.write_ns")-ns("ecc.encode_ns")) + nvmR*(ns("nvm.read_ns")-ns("ecc.decode_clean_ns")),
			"nvm writes x (write - encode) + nvm reads x (read - decode)"},
		{"ctrenc", macsOp*ns("ctrenc.mac_ns") + otps*ns("ctrenc.encrypt_ns") + codec*ns("ctrenc.ctrblock_roundtrip_ns"),
			"MACs x mac + pads x encrypt + (shadow writes + cache misses + write-backs)/2 x counter-block round trip"},
		{"wpq", pushes * (ns("wpq.push_ns") - ns("nvm.write_ns")),
			"pushes x (push - nvm write)"},
		{"itree", bmtU*bmtUpdateOwn + bmtV*own("itree.bmt_verify_ns"),
			"BMT updates x (update - its nvm lines - its MACs) + verifies likewise"},
		{"shadow", shW*(own("shadow.write_ns")-bmtUpdateOwn) + shI*(own("shadow.invalidate_ns")-bmtUpdateOwn),
			"entry writes x (write - its BMT update - its nvm lines - its MACs) + invalidations likewise"},
		{"metacache", lookups * ns("metacache.lookup_hit_ns"),
			"lookups x hit"},
	}
	residual := budget[0].NS
	for _, b := range budget[1:] {
		residual -= b.NS
	}
	m["memctrl.residual_ns_per_op"] = residual
	return m, budget
}

// printLadder prints the stacked layer budget against the end-to-end cost.
func printLadder(out io.Writer, w *workload, plain, traced *result, budget []budgetLine, m map[string]float64) {
	fmt.Fprintf(out, "ladder %s: caller-observed ns per op (fastest segment wall x generators / ops)\n", w.name)
	fmt.Fprintf(out, "  %-34s %12.1f\n", "end to end ("+w.top.String()+")", plain.CallerNS)
	for _, l := range []struct{ label, metric string }{
		{"devnet own", "devnet.self_ns_per_op"},
		{"device own", "device.self_ns_per_op"},
	} {
		if v, ok := m[l.metric]; ok {
			fmt.Fprintf(out, "  %-34s %12.1f\n", l.label, v)
		}
	}
	fmt.Fprintf(out, "  %-34s %12.1f   %s\n", budget[0].Layer, budget[0].NS, budget[0].How)
	for _, b := range budget[1:] {
		fmt.Fprintf(out, "    %-32s %12.1f   %s\n", b.Layer, b.NS, b.How)
	}
	fmt.Fprintf(out, "    %-32s %+12.1f   memctrl's own code plus what the method cannot attribute\n",
		"residual", m["memctrl.residual_ns_per_op"])
	fmt.Fprintf(out, "  traced %.0f ops/s vs untraced %.0f ops/s: trace_overhead_pct %+.2f\n",
		traced.OpsPerS, plain.OpsPerS, m["trace_overhead_pct"])
}

func writeTrace(outDir string, rep *traceReport) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", rep.Workload, rep.Seed)), data, 0o644)
}
