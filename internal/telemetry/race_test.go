package telemetry

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestAttachSnapshotRace hammers the full concurrent surface of a
// registry at once — lazy registration of fresh metrics (attach), hot
// updates through shared handles, span tracing and snapshots with
// export — and relies on the race detector for the verdict. This is the
// shape of a live device's handles: shard workers attach and update while
// an HTTP scraper snapshots.
func TestAttachSnapshotRace(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, func() int64 { return 7 })
	const iters = 400
	var wg sync.WaitGroup

	// Registrars: keep creating metrics (and re-resolving existing ones)
	// while everything else runs.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter(fmt.Sprintf("attach_ctr_%d_%d", w, i)).Inc()
				r.Gauge(fmt.Sprintf("attach_gauge_%d_%d", w, i)).Set(int64(i))
				r.Histogram(fmt.Sprintf("attach_hist_%d_%d", w, i), ExpBounds(8)).Observe(uint64(i))
				sp := tr.Handle(fmt.Sprintf("attach_span_%d", w)).Start()
				sp.End()
			}
		}(w)
	}

	// Updaters: hot-path traffic through shared handles.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_ctr")
			g := r.Gauge("shared_gauge")
			h := r.Histogram("shared_hist", ExpBounds(8))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.SetMax(int64(i))
				h.Observe(uint64(i % 100))
			}
		}()
	}

	// Snapshotters: capture, merge into a private accumulator, export.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			merged := &Snapshot{}
			for i := 0; i < iters/10; i++ {
				s := r.Snapshot()
				merged.Merge(s)
				if _, err := s.MarshalIndentJSON(); err != nil {
					t.Error(err)
					return
				}
				if err := s.WritePrometheus(io.Discard, `race="test"`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	wg.Wait()

	// Sanity: the registry is still coherent after the storm.
	s := r.Snapshot()
	if _, ok := s.Counters["shared_ctr"]; !ok {
		t.Fatal("shared counter vanished")
	}
	if len(s.Histograms) == 0 {
		t.Fatal("no histograms survived")
	}
}
