package runner

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"soteria/internal/config"
	"soteria/internal/core"
	"soteria/internal/faultsim"
)

func testSchemes(t testing.TB) []*faultsim.Scheme {
	t.Helper()
	d := config.Table4().DIMM
	schemes := []*faultsim.Scheme{faultsim.NonSecureScheme(d)}
	for _, pol := range []core.ClonePolicy{core.Baseline(), core.SRC()} {
		s, err := faultsim.BuildScheme(d, pol, 8192)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	return schemes
}

func testSweep(t testing.TB, trials int, fits []float64) FaultSweep {
	return FaultSweep{
		Config:      config.Table4(),
		FITs:        fits,
		Trials:      trials,
		Seed:        11,
		Conditional: true,
		BlockSize:   256,
		Schemes:     testSchemes(t),
	}
}

func TestDoRunsEveryJobOnce(t *testing.T) {
	e := New(Options{Workers: 8})
	var hits [200]atomic.Int32
	if err := e.Do("jobs", len(hits), func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func TestDoPropagatesFirstError(t *testing.T) {
	e := New(Options{Workers: 4})
	boom := errors.New("boom")
	var ran atomic.Int32
	err := e.Do("jobs", 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("error did not stop dispatch (ran %d jobs)", n)
	}
}

func TestDoReportsProgress(t *testing.T) {
	var got []Progress
	e := New(Options{Workers: 2, ProgressEvery: 1, OnProgress: func(p Progress) {
		got = append(got, p)
	}})
	if err := e.Do("label", 10, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no progress updates")
	}
	last := got[len(got)-1]
	if last.Done != 10 || last.Total != 10 || last.Label != "label" {
		t.Fatalf("terminal update = %+v", last)
	}
	for _, p := range got {
		if p.Done > p.Total {
			t.Fatalf("overflowing update %+v", p)
		}
	}
}

// The engine's headline guarantee: the same sweep produces bit-identical
// results at any worker count, including Workers far beyond the block
// count of a single point.
func TestFaultSweepWorkerCountInvariance(t *testing.T) {
	sweep := testSweep(t, 1500, []float64{20, 80})
	var want []*faultsim.Result
	for _, workers := range []int{1, 3, 16} {
		e := New(Options{Workers: workers})
		got, err := e.RunFaultSweep(sweep)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// A sweep and per-point faultsim.Run calls must agree exactly: the runner
// changes scheduling, never numbers.
func TestFaultSweepMatchesDirectRun(t *testing.T) {
	sweep := testSweep(t, 1000, []float64{40, 80})
	e := New(Options{Workers: 4})
	got, err := e.RunFaultSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	for i, fit := range sweep.FITs {
		want, err := faultsim.Run(sweep.options(fit), sweep.Schemes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("FIT %g: sweep %+v != direct %+v", fit, got[i], want)
		}
	}
}

func TestFaultSweepCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sweep := testSweep(t, 800, []float64{80})

	e := New(Options{Workers: 4, CacheDir: dir})
	first, err := e.RunFaultSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}

	// Second run must be served from disk: verify by giving the engine a
	// job function counter via progress (no blocks should run).
	var units atomic.Int32
	e2 := New(Options{Workers: 4, CacheDir: dir, ProgressEvery: 1,
		OnProgress: func(Progress) { units.Add(1) }})
	second, err := e2.RunFaultSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if units.Load() != 0 {
		t.Fatalf("cache hit still ran %d work units", units.Load())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result diverged:\n got %+v\nwant %+v", second, first)
	}

	// A different seed must miss.
	sweep.Seed++
	third, err := e2.RunFaultSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, third) && first[0].Schemes[1].TotalLUnv != 0 {
		t.Fatal("different seed served the old cache entry")
	}
}

// A scheme's recomputable level changes its losses, so it must be part of
// the cache key: a sweep that differs only there has to run its blocks
// and match a direct run, not be served the other sweep's entry.
func TestFaultSweepCacheKeyCoversRecomputableLevel(t *testing.T) {
	dir := t.TempDir()
	sweep := testSweep(t, 800, []float64{80})
	first, err := New(Options{Workers: 4, CacheDir: dir}).RunFaultSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}

	relaxed := *sweep.Schemes[1]
	relaxed.RecomputableAbove = 2
	sweep.Schemes = []*faultsim.Scheme{sweep.Schemes[0], &relaxed, sweep.Schemes[2]}
	var units atomic.Int32
	e := New(Options{Workers: 4, CacheDir: dir, ProgressEvery: 1,
		OnProgress: func(Progress) { units.Add(1) }})
	got, err := e.RunFaultSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if units.Load() == 0 {
		t.Fatal("sweep with a different recomputable level was served from the cache")
	}
	want, err := faultsim.Run(sweep.options(80), sweep.Schemes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("sweep %+v != direct %+v", got[0], want)
	}
	if reflect.DeepEqual(got[0], first[0]) {
		t.Fatal("the recomputable level changed no number; a stale entry would pass unnoticed")
	}
}

// Per-point telemetry inherits the engine's headline guarantee: the
// merged snapshot is byte-identical JSON at any worker count.
func TestFaultSweepTelemetryWorkerInvariance(t *testing.T) {
	sweep := testSweep(t, 1200, []float64{80})
	var want []byte
	for _, workers := range []int{1, 4} {
		e := New(Options{Workers: workers})
		res, err := e.RunFaultSweep(sweep)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Telemetry == nil {
			t.Fatal("sweep point carries no telemetry snapshot")
		}
		got, err := res[0].Telemetry.MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		if trials := res[0].Telemetry.Counters["faultsim_trials_total"]; trials != 1200 {
			t.Fatalf("faultsim_trials_total = %d, want 1200", trials)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d telemetry diverged:\n%s\n---\n%s", workers, got, want)
		}
	}
}

// OnPoint must fire once per point, in point order, flag cache hits, and
// round-trip the telemetry snapshot through the on-disk cache.
func TestFaultSweepOnPoint(t *testing.T) {
	dir := t.TempDir()
	sweep := testSweep(t, 600, []float64{40, 80})

	run := func() []Point {
		var pts []Point
		e := New(Options{Workers: 4, CacheDir: dir, OnPoint: func(p Point) {
			pts = append(pts, p)
		}})
		if _, err := e.RunFaultSweep(sweep); err != nil {
			t.Fatal(err)
		}
		return pts
	}

	fresh := run()
	if len(fresh) != 2 {
		t.Fatalf("OnPoint fired %d times, want 2", len(fresh))
	}
	for i, p := range fresh {
		if p.Index != i || p.FIT != sweep.FITs[i] || p.Label != "faultsim" {
			t.Fatalf("point %d mislabeled: %+v", i, p)
		}
		if p.Cached {
			t.Fatalf("point %d flagged cached on a cold run", i)
		}
		if p.Result == nil || p.Result.Telemetry == nil {
			t.Fatalf("point %d missing result or telemetry", i)
		}
	}

	cached := run()
	if len(cached) != 2 {
		t.Fatalf("cached OnPoint fired %d times, want 2", len(cached))
	}
	for i, p := range cached {
		if !p.Cached {
			t.Fatalf("point %d not flagged cached on a warm run", i)
		}
		if p.Result.Telemetry == nil {
			t.Fatalf("point %d telemetry lost through the cache", i)
		}
		a, err := p.Result.Telemetry.MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh[i].Result.Telemetry.MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("point %d cached telemetry diverged:\n%s\n---\n%s", i, a, b)
		}
	}
}

func TestFaultSweepRejectsEmpty(t *testing.T) {
	e := New(Options{})
	if _, err := e.RunFaultSweep(FaultSweep{}); err == nil {
		t.Fatal("empty sweep did not error")
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	s := testSweep(t, 800, []float64{80})
	base := s.pointKey(80)
	if s.pointKey(40) == base {
		t.Fatal("FIT not in key")
	}
	s2 := s
	s2.Seed++
	if s2.pointKey(80) == base {
		t.Fatal("seed not in key")
	}
	s3 := s
	s3.Trials++
	if s3.pointKey(80) == base {
		t.Fatal("trials not in key")
	}
	s4 := s
	s4.Schemes = s.Schemes[:2]
	if s4.pointKey(80) == base {
		t.Fatal("scheme set not in key")
	}
	s5 := s
	s5.BlockSize = 512
	if s5.pointKey(80) == base {
		t.Fatal("block size not in key")
	}
}
