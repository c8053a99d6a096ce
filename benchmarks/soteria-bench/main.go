// Command soteria-bench is the repository's wall-clock benchmark: four
// workloads, closed loop, from a bare memory controller up to loopback TCP,
// each checked by a content oracle and a crash/recover read-back.
//
//	go run ./benchmarks/soteria-bench                      every workload, each in a fresh child process
//	go run ./benchmarks/soteria-bench -workload net-pipe   one workload; the last stdout line is the result JSON
//	go run ./benchmarks/soteria-bench -trace 1 ...         the traced run: per-layer metrics, ladder, spans
//	go run ./benchmarks/soteria-bench -compare a.json b.json
//
// See benchmarks/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a single-workload run prints.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// machine identifies where numbers were taken.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// record is one workload's run inside a document.
type record struct {
	Workload   string  `json:"workload"`
	SegmentOps int     `json:"segment_ops"`
	Outcome    outcome `json:"outcome"`
}

// document is what the all-workloads command prints: one per invocation.
// Appending several to one file makes a set for -compare.
type document struct {
	Claim   *string  `json:"claim"` // null: a benchmark run claims nothing
	Machine machine  `json:"machine"`
	Seed    int64    `json:"seed"`
	Trace   int      `json:"trace"`
	Runs    []record `json:"runs"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if m.Commit == "unknown" { // `go run` does not stamp the binary; a checkout without git stays unknown
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	return m
}

// peakRSSMB is this process's resident-set high-water mark. It is read from
// VmHWM, which starts afresh at exec; ru_maxrss would carry over the
// footprint of the `go run` process that forked us.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), "kB"), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func scaled(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * by
	}
	return out
}

// outDir is where a traced run leaves its trace, relative to the repository
// root the command is run from. Git ignores it.
const outDir = "benchmarks/out"

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all, each in a child process)")
		seed    = flag.Int64("seed", 1, "seeds every address stream")
		seconds = flag.Int("seconds", runSeconds, "not a knob: the benchmark driver passes BENCHMARK.json's run_seconds, and any other value is refused")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics) instead of the timed run")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case flag.NArg() != 0:
		err = fmt.Errorf("usage: soteria-bench [-workload name] [-seed n] [-trace 0|1] | -compare a.json b.json")
	case *seconds != runSeconds:
		err = fmt.Errorf("-seconds %d: every run is a fixed op count sized for %d s", *seconds, runSeconds)
	case *name == "":
		err = runAll(*seed, *trace)
	default:
		w := findWorkload(*name)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		var out outcome
		if out, err = runOne(os.Stdout, outDir, w, *seed, 1, *trace != 0); err == nil && !out.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "soteria-bench:", err)
		os.Exit(2)
	}
}

// runOne runs one workload in this process, prints every metric by name
// with its unit, and ends with the result line. A traced run also writes its
// trace under outDir.
func runOne(stdout io.Writer, outDir string, w *workload, seed int64, scale float64, traced bool) (outcome, error) {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	mc := thisMachine()
	fmt.Fprintf(out, "soteria-bench %s seed=%d trace=%t\n", w.name, seed, traced)
	fmt.Fprintf(out, "machine: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", mc.CPU, mc.NProc, mc.GOMAXPROCS, mc.Go, mc.Commit)
	fmt.Fprintf(out, "frozen ops: %d per timed segment x %d segments x %d epochs, %d generator(s)\n",
		w.segmentOps(scale)*w.gens, segments, epochs, w.gens)

	var (
		defs []metricDef
		vals map[string]float64
		t    tally
	)
	if traced {
		var err error
		defs = perLayer
		if vals, t, err = runTrace(w, seed, scale, out, outDir); err != nil {
			return outcome{}, err
		}
	} else {
		r, err := measure(w, seed, runOpts{kind: w.top, scale: scale, epochs: epochs, recovery: true})
		if err != nil {
			return outcome{}, err
		}
		defs = endToEnd
		t.add(r)
		vals = map[string]float64{
			"ops_per_s": r.OpsPerS, "op_p50_us": r.P50us, "sim_ns_per_op": r.SimNS,
			"nvm_writes_per_op": r.NVMWrites, "recover_ms": r.RecoverMS, "setup_s": r.SetupS,
			"peak_rss_mb": peakRSSMB(),
		}
		fmt.Fprintf(out, "latency samples %d (1 in %d ops)\n", r.LatSamples, w.sampleEvery)
		for _, s := range []struct {
			what string
			v    []float64
		}{{"segment ms", scaled(r.SegmentS, 1e3)}, {"segment p50 us", r.SegmentP50}, {"recover ms", r.RecoverAll}, {"setup ms", scaled(r.SetupAll, 1e3)}} {
			q1, q3 := quartiles(s.v)
			fmt.Fprintf(out, "%-14s n %3d  min %.3f  q1 %.3f  median %.3f  q3 %.3f  max %.3f\n",
				s.what, len(s.v), slices.Min(s.v), q1, median(s.v), q3, slices.Max(s.v))
		}
	}
	res := outcome{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
		fmt.Fprintf(out, "%-34s %16.4f %-6s (%s is better)\n", d.Name, vals[d.Name], d.Unit, d.Better)
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	if t.firstErr != "" {
		fmt.Fprintf(out, "first failure: %s\n", t.firstErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// runAll runs every workload in a fresh child process, so one workload's
// heap and goroutines never colour the next, echoes each child's report to
// stderr and prints one document to stdout.
func runAll(seed int64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{Machine: thisMachine(), Seed: seed, Trace: trace}
	bad := false
	for i := range workloads {
		w := &workloads[i]
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		text := strings.TrimRight(stdout.String(), "\n")
		fmt.Fprintln(os.Stderr, text)
		last := text[strings.LastIndexByte(text, '\n')+1:]
		var out outcome
		if err := json.Unmarshal([]byte(last), &out); err != nil {
			return fmt.Errorf("%s: no result line (%v): %w", w.name, runErr, err)
		}
		bad = bad || !out.Correct
		doc.Runs = append(doc.Runs, record{Workload: w.name, SegmentOps: w.segmentOps(1) * w.gens, Outcome: out})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	if bad {
		return fmt.Errorf("a workload failed its output checks")
	}
	return nil
}
