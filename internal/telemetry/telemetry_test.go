package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every handle and the registry itself must be fully
// usable as nil — this is the "disabled = no overhead" contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", ExpBounds(4))
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	g.SetMax(10)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must stay zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}

	var tr *Tracer
	sh := tr.Handle("op")
	sp := sh.Start()
	sp.End()
	sh.Observe(5)
	if NewTracer(nil, func() int64 { return 0 }) != nil {
		t.Fatal("tracer over nil registry must be nil")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("ops") != c {
		t.Fatal("re-registration must return the same counter")
	}

	g := r.Gauge("depth")
	g.Set(4)
	g.SetMax(2)
	if g.Value() != 4 {
		t.Fatalf("SetMax lowered the gauge: %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax = %d, want 9", g.Value())
	}

	h := r.Histogram("lat", []uint64{1, 2, 4, 8})
	for _, v := range []uint64{0, 1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["lat"]
	want := []uint64{2, 1, 1, 1, 2} // <=1:{0,1} <=2:{2} <=4:{3} <=8:{5} over:{9,100}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Count != 7 || hs.Sum != 120 {
		t.Fatalf("count/sum = %d/%d, want 7/120", hs.Count, hs.Sum)
	}
}

func TestSpanTracing(t *testing.T) {
	r := NewRegistry()
	var now int64
	tr := NewTracer(r, func() int64 { return now })
	h := tr.Handle("read")
	sp := h.Start()
	now += 37
	sp.End()
	h.Observe(3)
	snap := r.Snapshot()
	if got := snap.Counters["trace_read_total"]; got != 2 {
		t.Fatalf("span count = %d, want 2", got)
	}
	if got := snap.Histograms["trace_read_ticks"].Sum; got != 40 {
		t.Fatalf("span ticks sum = %d, want 40", got)
	}
}

// TestSnapshotDeterminism: two registries fed identical event streams must
// produce byte-identical JSON, regardless of registration order.
func TestSnapshotDeterminism(t *testing.T) {
	feed := func(r *Registry, reverse bool) {
		names := []string{"alpha", "beta", "gamma"}
		if reverse {
			names = []string{"gamma", "beta", "alpha"}
		}
		for _, n := range names {
			r.Counter(n).Add(7)
			r.Gauge("g_" + n).Set(3)
			r.Histogram("h_"+n, ExpBounds(8)).Observe(5)
		}
	}
	a, b := NewRegistry(), NewRegistry()
	feed(a, false)
	feed(b, true)
	ja, err := a.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", ja, jb)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h", []uint64{1, 10}).Observe(4)
	data, err := r.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 3 || back.Gauges["g"] != -2 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(n uint64) *Snapshot {
		r := NewRegistry()
		r.Counter("c").Add(n)
		r.Gauge("g").Set(int64(n))
		r.Histogram("h", []uint64{8}).Observe(n)
		return r.Snapshot()
	}
	s := mk(3)
	s.Merge(mk(4))
	s.Merge(nil)
	if s.Counters["c"] != 7 || s.Gauges["g"] != 7 {
		t.Fatalf("merge sums wrong: %+v", s)
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 7 || h.Counts[0] != 2 {
		t.Fatalf("histogram merge wrong: %+v", h)
	}
	// Merge into an empty snapshot (the runner's per-point fold).
	var empty Snapshot
	empty.Merge(s)
	if empty.Counters["c"] != 7 || empty.Histograms["h"].Count != 2 {
		t.Fatalf("merge into empty lost data: %+v", empty)
	}
}

// TestExportCountsFromRegistration: an export reports its book's growth
// since Export, and adds up with counters and exports of the same name.
func TestExportCountsFromRegistration(t *testing.T) {
	var book, other uint64 = 40, 7
	r := NewRegistry()
	r.Export("x", func() uint64 { return book })
	book += 3
	if got := r.Snapshot().Counters["x"]; got != 3 {
		t.Fatalf("export = %d, want its growth since registration 3", got)
	}
	r.Counter("x").Add(2)
	r.Export("x", func() uint64 { return other })
	other += 5
	book++
	if got := r.Snapshot().Counters["x"]; got != 11 {
		t.Fatalf("export+counter+export = %d, want 4+2+5", got)
	}
	var nilReg *Registry
	nilReg.Export("x", func() uint64 { return book }) // must not panic
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("metacache_hits_total").Add(12)
	r.Gauge("wpq_depth_max").Set(5)
	r.Histogram("wpq_drain_ticks", []uint64{10, 100}).Observe(50)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf, `mode="SRC"`); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`soteria_metacache_hits_total{mode="SRC"} 12`,
		`soteria_wpq_depth_max{mode="SRC"} 5`,
		`soteria_wpq_drain_ticks_bucket{mode="SRC",le="100"} 1`,
		`soteria_wpq_drain_ticks_bucket{mode="SRC",le="+Inf"} 1`,
		`soteria_wpq_drain_ticks_sum{mode="SRC"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentUpdates exercises the registry from many goroutines under
// -race: registration, updates and snapshots must all be safe.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, iters = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("hist", ExpBounds(8))
			g := r.Gauge("gauge")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(uint64(i % 50))
				g.SetMax(int64(i))
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*iters {
		t.Fatalf("lost updates: %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("hist", nil).Count(); got != workers*iters {
		t.Fatalf("lost histogram samples: %d", got)
	}
}
