package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"soteria/internal/device"
	"soteria/internal/memctrl"
)

// testScale runs every workload at 1/100 of the frozen op counts.
const testScale = 1.0 / 100

// deterministic is everything a run reports that must not depend on the
// host: simulated time, NVM traffic, the controllers' books, every telemetry
// count, and what recovery found.
type deterministic struct {
	simNS, nvmWrites   float64
	stats              memctrl.Stats
	counts             map[string]uint64
	tracked, recovered int
	attempted          uint64
}

func runDeterministic(t *testing.T, w *workload, seed int64, recovery bool) deterministic {
	t.Helper()
	epochs := 2
	if w.capacity != 0 {
		epochs = 1 // populating 16 MB takes a second
	}
	r, err := measure(w, seed, runOpts{kind: w.top, traced: true, scale: testScale, epochs: epochs, recovery: recovery})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %s", w.name, seed, r.Failed, r.Attempted, r.FirstErr)
	}
	return deterministic{r.SimNS, r.NVMWrites, r.after, r.counts, r.Tracked, r.Recovered, r.Attempted}
}

// TestDeterminismAndSeed: one seed gives identical simulated statistics and
// counts on every workload, concurrent ones included; another seed moves
// them.
func TestDeterminismAndSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the 16 MB workload alone would otherwise take most of the test's time
			a, b := runDeterministic(t, w, 1, true), runDeterministic(t, w, 1, true)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("seed 1 twice differs:\n%+v\n%+v", a, b)
			}
			if len(a.counts) == 0 {
				t.Error("traced run exposed no telemetry counts")
			}
			c := runDeterministic(t, w, 2, false) // the timed phase is enough to see the seed
			if a.simNS == c.simNS && reflect.DeepEqual(a.counts, c.counts) {
				t.Error("seed 2 reproduced seed 1 exactly: the seed does not reach the op stream")
			}
		})
	}
}

// TestShardOwnership: generator g only ever addresses shards s with
// s % gens == g, by the device's own mapping, and the generators' lines are
// disjoint. That is what keeps per-shard op order, and so every simulated
// statistic, deterministic under concurrency.
func TestShardOwnership(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.shards == 1 {
			continue
		}
		dev, err := device.New(deviceOptions(w, false))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for g := 0; g < w.gens; g++ {
			gn := newGen(w, w.top, g, 0, 1)
			perShard := map[int]int{}
			for _, addr := range gn.addrs {
				s := dev.ShardOf(addr)
				if s%w.gens != g {
					t.Fatalf("%s: generator %d addresses %#x on shard %d", w.name, g, addr, s)
				}
				if seen[addr] {
					t.Fatalf("%s: address %#x owned twice", w.name, addr)
				}
				seen[addr] = true
				perShard[s]++
			}
			for s, n := range perShard {
				if want := int(w.lines) / w.shards; n != want {
					t.Errorf("%s: generator %d has %d lines on shard %d, want %d", w.name, g, n, s, want)
				}
			}
		}
		if len(seen) != int(w.lines) {
			t.Errorf("%s: %d distinct lines, want %d", w.name, len(seen), w.lines)
		}
		if err := dev.Close(); err != nil {
			t.Error(err)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSchemaMatchesBenchmarkJSON: the names the program emits are the names
// BENCHMARK.json declares, with the same units, directions and bounds.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the op counts are sized for %d", bj.RunSeconds, runSeconds)
	}
	if want := []string{"go", "run", "./benchmarks/soteria-bench"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command %v, want %v", bj.Command, want)
	}
	if want := []string{"benchmarks"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths %v, want %v", bj.Paths, want)
	}

	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		// 0.25 is the widest bound the benchmark's file format admits, not a
		// choice made here.
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: needs a unit, a direction and a bound in (0, 0.25]: %+v", d.Name, d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check("per-layer", d.Name)
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") || d.Bound != 0 {
			t.Errorf("%s: needs a unit and a direction, and no bound: %+v", d.Name, d)
		}
	}
}

// lastLine parses the result line of a single-workload report.
func lastLine(t *testing.T, report string) outcome {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(report), "\n")
	var out outcome
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return out
}

// TestEmittedNames: the timed run emits exactly the end-to-end metrics and
// the traced run exactly the per-layer ones, each with its declared unit,
// and the report records the machine and the frozen op counts.
func TestEmittedNames(t *testing.T) {
	t.Parallel()
	w := findWorkload("net-pipe") // the tallest ladder
	dir := t.TempDir()
	for _, c := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		var buf bytes.Buffer
		out, err := runOne(&buf, dir, w, 1, testScale, c.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("traced=%t: %+v", c.traced, out)
		}
		parsed := lastLine(t, buf.String())
		if len(parsed.Metrics) != len(c.defs) {
			t.Errorf("traced=%t: %d metrics emitted, %d declared", c.traced, len(parsed.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if v, ok := parsed.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("traced=%t: %s emitted as %+v (present %t), want unit %s", c.traced, d.Name, v, ok, d.Unit)
			}
		}
		for _, want := range []string{"machine: ", "GOMAXPROCS", "commit ", "frozen ops: "} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("traced=%t: report lacks %q", c.traced, want)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("trace-%s-seed1.json", w.name))); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}
	m := thisMachine()
	if m.CPU == "" || m.NProc < 1 || m.GOMAXPROCS < 1 || m.Go == "" || m.Commit == "" {
		t.Errorf("machine identity incomplete: %+v", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

// writeSet writes one document per run with the given ops_per_s and
// sim_ns_per_op on every workload, every other metric held at 1.
func writeSet(t *testing.T, path string, seed int64, opsPerS, simNS []float64) {
	t.Helper()
	var buf bytes.Buffer
	for i := range opsPerS {
		doc := document{Seed: seed}
		for _, w := range workloads {
			out := outcome{Correct: true, Attempted: 1, Metrics: map[string]value{}}
			for _, d := range endToEnd {
				out.Metrics[d.Name] = value{1, d.Unit}
			}
			out.Metrics["ops_per_s"] = value{opsPerS[i], "ops/s"}
			out.Metrics["sim_ns_per_op"] = value{simNS[i], "ns"}
			doc.Runs = append(doc.Runs, record{Workload: w.name, SegmentOps: w.segmentOps(1) * w.gens, Outcome: out})
		}
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	steady := []float64{100, 101, 99, 100, 102}
	sim := []float64{50, 50, 50, 50, 50}
	zero := []float64{0, 0, 0, 0, 0}
	a := filepath.Join(dir, "a.json")
	writeSet(t, a, 1, steady, sim)
	for _, c := range []struct {
		name      string
		ops, sim  []float64
		bad       bool
		wantInRow string // verdict expected on the ops_per_s or sim_ns_per_op rows
	}{
		{"same", steady, sim, false, "ok"},
		{"slower", []float64{60, 61, 59, 60, 62}, sim, true, "worse"},
		{"faster", []float64{200, 201, 199, 200, 202}, sim, false, "ok"},
		{"noisy", []float64{100, 60, 140, 95, 30}, sim, true, "unresolved"},
		{"sim-moved", steady, []float64{51, 51, 51, 51, 51}, true, "worse"},
		{"to-zero", zero, sim, true, "+100.00%"},
	} {
		b := filepath.Join(dir, c.name+".json")
		writeSet(t, b, 1, c.ops, c.sim)
		var buf bytes.Buffer
		bad, err := compareFiles(&buf, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad || !strings.Contains(buf.String(), c.wantInRow) {
			t.Errorf("%s: bad=%t, want %t with a %q row:\n%s", c.name, bad, c.bad, c.wantInRow, buf.String())
		}
	}

	// A zero median is a base nothing is a share of: no NaN verdicts.
	z := filepath.Join(dir, "zero.json")
	writeSet(t, z, 1, zero, sim)
	var buf bytes.Buffer
	if bad, err := compareFiles(&buf, z, z); err != nil || bad || strings.Contains(buf.String(), "NaN") {
		t.Errorf("zero against zero: bad=%t err=%v:\n%s", bad, err, buf.String())
	}
	buf.Reset()
	if bad, err := compareFiles(&buf, z, a); err != nil || bad || !strings.Contains(buf.String(), "-Inf%") {
		t.Errorf("up from zero: bad=%t err=%v, want an ok row better by -Inf%%:\n%s", bad, err, buf.String())
	}

	// Sets of different seeds, or one set mixing seeds, do not compare.
	other := filepath.Join(dir, "seed2.json")
	writeSet(t, other, 2, steady, sim)
	if _, err := compareFiles(io.Discard, a, other); err == nil {
		t.Error("sets of seeds 1 and 2 compared without an error")
	}
	one, _ := os.ReadFile(a)
	two, _ := os.ReadFile(other)
	mixed := filepath.Join(dir, "mixed.json")
	if err := os.WriteFile(mixed, append(one, two...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(io.Discard, mixed, a); err == nil {
		t.Error("a set mixing seeds 1 and 2 was read without an error")
	}
}

// TestSoakedEnvelope: ctrl-write-evict stays where README "Known defects"
// says the controller has been soaked clean: 2048 blocks and under 2 M
// writes on one controller, which lives for one epoch (populate, warm-up,
// timed phase, recovery cycles).
func TestSoakedEnvelope(t *testing.T) {
	w := findWorkload("ctrl-write-evict")
	seg := w.segmentOps(1)
	writes := int(w.lines) + seg + seg*segments + w.cycleOps(1)*recoverCycles
	if w.lines != 2048 || w.readEvery != 0 || writes >= 2_000_000 {
		t.Errorf("ctrl-write-evict: %d lines, %d writes on one controller; soaked clean at 2048 lines and under 2 M writes", w.lines, writes)
	}
}
