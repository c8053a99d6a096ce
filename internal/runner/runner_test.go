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

// OnPoint must fire once per point, in point order, with the point's
// result and telemetry snapshot.
func TestFaultSweepOnPoint(t *testing.T) {
	sweep := testSweep(t, 600, []float64{40, 80})
	var pts []Point
	e := New(Options{Workers: 4, OnPoint: func(p Point) {
		pts = append(pts, p)
	}})
	if _, err := e.RunFaultSweep(sweep); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("OnPoint fired %d times, want 2", len(pts))
	}
	for i, p := range pts {
		if p.Index != i || p.FIT != sweep.FITs[i] || p.Label != "faultsim" {
			t.Fatalf("point %d mislabeled: %+v", i, p)
		}
		if p.Result == nil || p.Result.Telemetry == nil {
			t.Fatalf("point %d missing result or telemetry", i)
		}
	}
}

func TestFaultSweepRejectsEmpty(t *testing.T) {
	e := New(Options{})
	if _, err := e.RunFaultSweep(FaultSweep{}); err == nil {
		t.Fatal("empty sweep did not error")
	}
}
