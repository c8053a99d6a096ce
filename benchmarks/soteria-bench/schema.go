package main

// The benchmark's vocabulary: the four workloads and every metric name it
// emits. BENCHMARK.json at the repository root declares the same sets;
// TestSchemaMatchesBenchmarkJSON keeps the two equal.

// kind names the layer a generator calls into. A workload's top kind is what
// the timed run drives; its ladder replays the same op stream through each
// lower kind, so a layer's own cost is the difference between adjacent rungs.
type kind int

const (
	kindCtrl  kind = iota // bare memctrl.Controller, one per shard
	kindBatch             // device.Device ExecBatch, 32 ops per call
	kindPipe              // devnet.Pipe over loopback TCP, window 4, batch 32
)

var kindNames = [...]string{"memctrl", "device.batch", "devnet.pipe"}

func (k kind) String() string { return kindNames[k] }

// workload fixes one traffic shape. Every count below is frozen: a run is a
// fixed number of ops, so simulated statistics repeat exactly for one seed
// and host time is the only thing that varies.
type workload struct {
	name string
	why  string
	top  kind
	// ladder lists the lower rungs of the traced run, highest first.
	ladder []kind
	// gens is the number of closed-loop generators (goroutines, and
	// connections on the network kinds). Generator g owns shards s with
	// s % gens == g, so per-shard op order is deterministic.
	gens   int
	shards int
	// lines is the working set in 64-byte lines, split evenly over shards.
	lines uint64
	// capacity overrides config.TestSystem()'s 4 MB NVM when non-zero.
	capacity uint64
	// readEvery makes every n-th op a read: 0 is all writes, 1 all reads,
	// 4 the 3:1 write:read mix of the repo's other benchmarks.
	readEvery int
	// cyclic walks the working set in address order from a seeded start;
	// otherwise addresses are uniform random.
	cyclic bool
	// sampleEvery is the latency sampling period in ops, set so that a
	// segment's median rests on 200 or more samples.
	sampleEvery int
	// epochOps is the frozen op count of one epoch's timed phase, all
	// generators together, sized so a run's epochs take about runSeconds on the
	// reference box and one controller stays inside what has been soaked clean
	// (README "Known defects"; TestSoakedEnvelope).
	epochOps int
}

const (
	runSeconds    = 20  // BENCHMARK.json's run_seconds: what the frozen op counts were sized for
	epochs        = 6   // fresh stacks per timed run, one after the other; setup_s is the median of their set-ups
	segments      = 120 // timed segments per epoch, 20-30 ms each; a wall-clock metric is that of the run's least disturbed one
	recoverCycles = 30  // crash/recover cycles per epoch, a quarter segment's ops before each; recover_ms is the run's fastest
	pipeWindow    = 4
	batchOps      = 32
	rttPings      = 20000
)

var workloads = []workload{
	{
		name: "ctrl-write-hot",
		why:  "bare controller, writes cycling 512 blocks that fit the metadata cache: memctrl/shadow/itree/wpq/nvm/ecc do all the work, no evictions, no dispatcher",
		top:  kindCtrl, gens: 1, shards: 1, lines: 512, cyclic: true, sampleEvery: 64,
		epochOps: 1_700_000,
	},
	{
		name: "ctrl-write-evict",
		why:  "bare controller, uniform random writes over 2048 blocks: dirty metadata evictions, lazy parent bumps and atomic clone write groups dominate",
		top:  kindCtrl, gens: 1, shards: 1, lines: 2048, sampleEvery: 32,
		epochOps: 1_000_000,
	},
	{
		name: "ctrl-read-cold",
		why:  "16 MB controller, uniform random reads: metadata misses, verification chains, nvm read + ecc decode + MAC verify; shadow and wpq idle, so a write-path gain that costs reads shows",
		top:  kindCtrl, gens: 1, shards: 1, lines: 16 << 20 / 64, capacity: 16 << 20, readEvery: 1, sampleEvery: 16,
		epochOps: 390_000,
	},
	{
		name: "net-pipe",
		why:  "loopback TCP, devnet.Server over an 8-shard device, 2 pipes (window 4, batch 32) each owning 4 shards x 512 lines, 3:1 write:read: framing + ExecBatch, the service headline",
		top:  kindPipe, ladder: []kind{kindBatch, kindCtrl}, gens: 2, shards: 8, lines: 4096, readEvery: 4, sampleEvery: 64,
		epochOps: 1_950_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef declares one metric. bound is only meaningful end to end: the
// share of the parent's median by which the metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a caller of the system sees; the same names on
// every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"sim_ns_per_op", "ns", "lower", 0.02},
	{"nvm_writes_per_op", "lines", "lower", 0.02},
	{"recover_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// exactMetrics are deterministic for one seed: -compare demands equality
// between two sets of the same commit.
var exactMetrics = map[string]bool{"sim_ns_per_op": true, "nvm_writes_per_op": true}

// perLayer are measured only in the traced run. A layer a workload bypasses
// reads 0 there.
var perLayer = []metricDef{
	{Name: "ecc.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.decode_clean_ns", Unit: "ns", Better: "lower"},
	{Name: "nvm.write_ns", Unit: "ns", Better: "lower"},
	{Name: "nvm.read_ns", Unit: "ns", Better: "lower"},
	{Name: "nvm.writes_per_op", Unit: "lines", Better: "lower"},
	{Name: "nvm.reads_per_op", Unit: "lines", Better: "lower"},
	{Name: "nvm.corrected_lines", Unit: "count", Better: "lower"},
	{Name: "ctrenc.encrypt_ns", Unit: "ns", Better: "lower"},
	{Name: "ctrenc.mac_ns", Unit: "ns", Better: "lower"},
	{Name: "ctrenc.ctrblock_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "itree.bmt_update_ns", Unit: "ns", Better: "lower"},
	{Name: "itree.bmt_verify_ns", Unit: "ns", Better: "lower"},
	{Name: "shadow.write_ns", Unit: "ns", Better: "lower"},
	{Name: "shadow.invalidate_ns", Unit: "ns", Better: "lower"},
	{Name: "shadow.entry_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "shadow.invalidations_per_op", Unit: "count", Better: "lower"},
	{Name: "metacache.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "metacache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "metacache.dirty_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "wpq.push_ns", Unit: "ns", Better: "lower"},
	{Name: "wpq.push_atomic_ns", Unit: "ns", Better: "lower"},
	{Name: "wpq.stalls_per_kop", Unit: "count", Better: "lower"},
	{Name: "wpq.coalesced_per_op", Unit: "count", Better: "higher"},
	{Name: "wpq.max_depth", Unit: "count", Better: "lower"},
	{Name: "memctrl.write_ns", Unit: "ns", Better: "lower"},
	{Name: "memctrl.read_ns", Unit: "ns", Better: "lower"},
	{Name: "memctrl.residual_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "memctrl.clone_writes_per_op", Unit: "lines", Better: "lower"},
	{Name: "memctrl.forced_wb_per_kop", Unit: "count", Better: "lower"},
	{Name: "memctrl.page_reencrypt_per_kop", Unit: "count", Better: "lower"},
	{Name: "memctrl.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "memctrl.recovered_blocks", Unit: "count", Better: "lower"},
	{Name: "memctrl.tracked_entries", Unit: "count", Better: "lower"},
	{Name: "device.batch_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "device.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "device.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "device.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "device.busy_rejects", Unit: "count", Better: "lower"},
	{Name: "devnet.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "devnet.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "devnet.rtt_samples", Unit: "count", Better: "higher"},
	{Name: "devnet.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "devnet.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "devnet.retries", Unit: "count", Better: "lower"},
	{Name: "devnet.batch_retransmits", Unit: "count", Better: "lower"},
	{Name: "devnet.reconnects", Unit: "count", Better: "lower"},
	{Name: "devnet.dedup_hits", Unit: "count", Better: "lower"},
	{Name: "devnet.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}
