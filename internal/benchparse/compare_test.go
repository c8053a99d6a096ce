package benchparse

import (
	"math"
	"strings"
	"testing"
)

func report(benches ...Benchmark) *Report { return &Report{Benchmarks: benches} }

func bench(name string, procs int, nsop float64) Benchmark {
	return Benchmark{Name: name, Procs: procs, Iters: 100,
		Metrics: []Metric{{Value: nsop, Unit: "ns/op"}, {Value: 0, Unit: "B/op"}}}
}

func TestCompareMatchesByNameAndProcs(t *testing.T) {
	old := report(bench("BenchmarkA", 8, 100), bench("BenchmarkB", 8, 50), bench("BenchmarkB", 4, 70))
	new := report(bench("BenchmarkB", 8, 40), bench("BenchmarkA", 8, 130), bench("BenchmarkB", 4, 70))
	ds := Compare(old, new, "ns/op")
	if len(ds) != 3 {
		t.Fatalf("got %d deltas, want 3", len(ds))
	}
	// Baseline order preserved.
	if ds[0].Name != "BenchmarkA" || ds[1].Name != "BenchmarkB" || ds[1].Procs != 8 || ds[2].Procs != 4 {
		t.Fatalf("bad order/matching: %+v", ds)
	}
	if math.Abs(ds[0].Ratio-1.3) > 1e-9 || math.Abs(ds[1].Ratio-0.8) > 1e-9 || math.Abs(ds[2].Ratio-1.0) > 1e-9 {
		t.Fatalf("bad ratios: %+v", ds)
	}
}

func TestCompareRegressionTolerance(t *testing.T) {
	old := report(bench("BenchmarkA", 8, 100))
	cases := []struct {
		newNs    float64
		regessed bool
	}{{119, false}, {120, false}, {121, true}, {80, false}}
	for _, c := range cases {
		ds := Compare(old, report(bench("BenchmarkA", 8, c.newNs)), "ns/op")
		if got := ds[0].Regressed(0.20); got != c.regessed {
			t.Errorf("new=%v: Regressed(0.20)=%v, want %v", c.newNs, got, c.regessed)
		}
	}
}

func TestCompareMissingAndNew(t *testing.T) {
	old := report(bench("BenchmarkGone", 8, 100), bench("BenchmarkKept", 8, 10))
	new := report(bench("BenchmarkKept", 8, 10), bench("BenchmarkAdded", 8, 5))
	ds := Compare(old, new, "ns/op")
	if len(ds) != 3 {
		t.Fatalf("got %d deltas, want 3", len(ds))
	}
	if !ds[0].OnlyOld || ds[0].Name != "BenchmarkGone" {
		t.Fatalf("missing benchmark not flagged: %+v", ds[0])
	}
	if !ds[2].OnlyNew || ds[2].Name != "BenchmarkAdded" {
		t.Fatalf("new benchmark not flagged: %+v", ds[2])
	}
	// One-sided deltas never count as regressions.
	if ds[0].Regressed(0) || ds[2].Regressed(0) {
		t.Fatal("one-sided delta reported as regression")
	}
}

// TestMatchedDetectsDisjointProcs: a baseline recorded at procs=1 against
// a run at procs=2 shares names but no (name, procs) pair; the gate must be
// able to tell that apart from "one benchmark went missing".
func TestMatchedDetectsDisjointProcs(t *testing.T) {
	old := report(bench("BenchmarkA", 1, 100), bench("BenchmarkB", 1, 10))
	ds := Compare(old, report(bench("BenchmarkA", 2, 100), bench("BenchmarkB", 2, 10)), "ns/op")
	if m, n := Matched(ds); m != 0 || n != 2 {
		t.Fatalf("disjoint procs: matched %d of %d, want 0 of 2", m, n)
	}
	ds = Compare(old, report(bench("BenchmarkA", 1, 100), bench("BenchmarkC", 1, 5)), "ns/op")
	if m, n := Matched(ds); m != 1 || n != 2 {
		t.Fatalf("one shared row: matched %d of %d, want 1 of 2", m, n)
	}
}

func TestCompareSkipsBenchmarksWithoutMetric(t *testing.T) {
	old := report(
		Benchmark{Name: "BenchmarkTrials", Procs: 8, Iters: 1,
			Metrics: []Metric{{Value: 9000, Unit: "trials/s"}}},
		bench("BenchmarkA", 8, 100),
	)
	ds := Compare(old, report(bench("BenchmarkA", 8, 100)), "ns/op")
	if len(ds) != 1 || ds[0].Name != "BenchmarkA" {
		t.Fatalf("metric filter failed: %+v", ds)
	}
}

func TestFormatDeltasFlagsRegressions(t *testing.T) {
	old := report(bench("BenchmarkA", 8, 100), bench("BenchmarkB", 8, 100))
	new := report(bench("BenchmarkA", 8, 150), bench("BenchmarkB", 8, 90))
	out := FormatDeltas(Compare(old, new, "ns/op"), 0.20)
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("regression not flagged:\n%s", out)
	}
	if strings.Count(out, "REGRESSION") != 1 {
		t.Fatalf("expected exactly one flagged row:\n%s", out)
	}
	if !strings.Contains(out, "+50.0%") || !strings.Contains(out, "-10.0%") {
		t.Fatalf("deltas not rendered:\n%s", out)
	}
}
