// Command benchcompare gates benchmark regressions: it compares a new
// `go test -bench` run against a checked-in baseline and exits non-zero
// when any shared benchmark's ns/op grew beyond the tolerance, or when the
// two runs share no (name, procs) pair at all ("0 of N baseline rows
// matched": the gate compared nothing). CI runs it
// after the benchmark smoke step so a hot-path slowdown fails the build
// instead of silently landing.
//
// Both inputs may be bench2json artifacts (JSON) or raw `go test -bench`
// text; the format is sniffed per file.
//
// Usage:
//
//	go run ./cmd/benchcompare -old BENCH_baseline.json -new bench_gate.txt
//	go run ./cmd/benchcompare -old BENCH_baseline.json -new new.json -tolerance 0.10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"soteria/internal/benchparse"
)

func main() {
	var (
		oldPath   = flag.String("old", "", "baseline report (bench2json JSON or go test -bench text)")
		newPath   = flag.String("new", "", "new report (bench2json JSON or go test -bench text)")
		unit      = flag.String("unit", "ns/op", "metric to compare")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional growth before failing (0.20 = 20%)")
		missingOK = flag.Bool("allow-missing", false, "do not fail when a baseline benchmark is absent from the new run")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}

	oldRep, err := loadReport(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := loadReport(*newPath)
	if err != nil {
		fatal(err)
	}

	deltas := benchparse.Compare(oldRep, newRep, *unit)
	if len(deltas) == 0 {
		fatal(fmt.Errorf("no %q benchmarks in common between %s and %s", *unit, *oldPath, *newPath))
	}
	fmt.Print(benchparse.FormatDeltas(deltas, *tolerance))
	if matched, baseline := benchparse.Matched(deltas); matched == 0 {
		fatal(fmt.Errorf("0 of %d baseline rows matched: no (name, procs) pair is shared — run the benchmarks at the baseline's GOMAXPROCS (-cpu)", baseline))
	}

	failed := false
	for _, d := range deltas {
		if d.Regressed(*tolerance) {
			fmt.Fprintf(os.Stderr, "benchcompare: %s regressed %.1f%% (limit %.0f%%)\n",
				d.Name, (d.Ratio-1)*100, *tolerance*100)
			failed = true
		}
		if d.OnlyOld && !*missingOK {
			fmt.Fprintf(os.Stderr, "benchcompare: %s is in the baseline but missing from the new run\n", d.Name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadReport reads a report from a bench2json artifact or raw benchmark
// text, sniffing the format off the first non-space byte.
func loadReport(path string) (*benchparse.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var rep benchparse.Report
		if err := json.Unmarshal(trimmed, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	rep, err := benchparse.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcompare:", err)
	os.Exit(1)
}
