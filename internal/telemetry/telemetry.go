// Package telemetry is the instrumentation substrate of the whole
// controller stack: a zero-allocation metrics registry (counters, gauges,
// bounded histograms) plus a lightweight scoped-span tracer, threaded
// through memctrl, metacache, wpq, nvm, ctrenc, itree and faultsim.
//
// Two properties shape every design decision here:
//
//   - Nil safety. A component that was never attached to a registry holds
//     nil metric handles, and every method on a nil handle is a no-op. The
//     hot paths therefore pay exactly one nil check per event when
//     telemetry is disabled — verified by the package benchmarks and the
//     root-level controller benchmarks.
//
//   - Determinism. Snapshots contain only quantities derived from the
//     simulation itself (counts, sim-time durations), never wall-clock
//     time, and serialize with sorted keys. The same seed therefore
//     produces a byte-identical metrics JSON at any worker count, which is
//     what makes the model-based differential tests and the golden
//     snapshot test possible.
//
// A count that a component already keeps in its own Stats book is not
// counted a second time here: the component exports the book's field with
// Registry.Export, and the snapshot reports the field's growth since the
// export was registered. Handles (Counter, Gauge, Histogram) remain for
// what no book counts. Handle updates are atomic, but an export reads a
// plain field: a snapshot must run under the serialization of every
// component that exported to the registry (device.Snapshot takes each
// shard's lock around that shard's registry). Snapshots of handle-only
// registries may run concurrently with their updates, and per-worker
// snapshots merge without races.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The nil Counter is
// valid and ignores every update, which is how disabled telemetry costs
// nothing on the hot path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (occupancies, derived ratios). The nil
// Gauge ignores every update.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded histogram over uint64 samples: len(bounds)
// finite buckets (sample <= bounds[i]) plus one overflow bucket. Bounds
// are fixed at registration, so Observe never allocates. The nil
// Histogram ignores every sample.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Binary search over the fixed bounds: the bucket is the first bound
	// >= v; misses land in the overflow bucket.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples observed (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples (0 for nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBounds builds n exponentially spaced bounds 1, 2, 4, ... — the
// standard shape for latency histograms in sim ticks.
func ExpBounds(n int) []uint64 {
	out := make([]uint64, n)
	v := uint64(1)
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// LinearBounds builds n linearly spaced bounds start, start+step, ...
// (occupancy histograms).
func LinearBounds(start, step uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)*step
	}
	return out
}

// Registry holds the named metrics of one simulation. The nil Registry is
// valid: every lookup on it returns a nil handle, so an unattached
// component is fully disabled. Registration is mutex-guarded; metric
// updates are lock-free.
type Registry struct {
	mu      sync.Mutex
	ctrs    map[string]*Counter
	gauges  map[string]*Gauge
	hists   map[string]*Histogram
	exports []export
}

// export is one book field a component exported under name: read returns
// the field's lifetime count, base its value at registration.
type export struct {
	name string
	read func() uint64
	base uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Export registers a counter whose count a component already keeps:
// read returns that book field's lifetime value, which never decreases,
// and snapshots report its growth since this call. Exports and counters
// of one name add up, as counters of one name would. read runs inside
// Snapshot, so the snapshot must hold whatever serializes the field's
// owner. A no-op on a nil registry.
func (r *Registry) Export(name string, read func() uint64) {
	if r == nil {
		return
	}
	base := read()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exports = append(r.exports, export{name: name, read: read, base: base})
}

// Counter returns (registering on first use) the named counter. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket bounds. Bounds must be ascending; re-registration
// keeps the original bounds. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := make([]uint64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// names returns the sorted metric names of one kind (deterministic
// iteration order for snapshots and exporters).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
