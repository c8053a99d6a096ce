package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// HistogramSnapshot is the serialized form of one bounded histogram.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds; Counts has one extra
	// overflow bucket at the end.
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry. It serializes
// deterministically: encoding/json emits map keys sorted, and every value
// is an integer derived from the simulation, so identical seeds produce
// byte-identical snapshots at any worker count.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. It reads every export,
// so it runs under the serialization of the components that exported
// (see Export). Nil registries yield an empty (but usable) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	exports := r.exports // read below, outside the lock
	for name, c := range r.ctrs {
		s.Counters[name] = c.v.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v.Load()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	r.mu.Unlock()
	for _, e := range exports {
		s.Counters[e.name] += e.read() - e.base
	}
	return s
}

// Merge folds o into s: counters and gauges add, histograms add
// bucket-wise (bounds must match; mismatched histograms are summarized by
// count/sum only). Merging in a fixed order is deterministic because
// every operation is integer addition.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
	for k, oh := range o.Histograms {
		sh, ok := s.Histograms[k]
		if !ok {
			sh = HistogramSnapshot{
				Bounds: append([]uint64(nil), oh.Bounds...),
				Counts: make([]uint64, len(oh.Counts)),
			}
		}
		if len(sh.Counts) == len(oh.Counts) {
			for i := range oh.Counts {
				sh.Counts[i] += oh.Counts[i]
			}
		}
		sh.Count += oh.Count
		sh.Sum += oh.Sum
		s.Histograms[k] = sh
	}
}

// MarshalIndentJSON renders the snapshot as deterministic, human-readable
// JSON (the format the golden-snapshot test locks byte for byte).
func (s *Snapshot) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteJSON writes the indented JSON snapshot followed by a newline.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := s.MarshalIndentJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// promName sanitizes a metric name for the Prometheus text format.
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, metrics sorted by name. labels, when non-empty, is a
// preformatted label body (e.g. `mode="soteria-SRC"`) applied to every
// series. Counters gain the conventional _total-compatible counter type,
// histograms expand into cumulative le-labelled buckets plus _sum/_count.
func (s *Snapshot) WritePrometheus(w io.Writer, labels string) error {
	wrap := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case extra == "":
			return "{" + labels + "}"
		case labels == "":
			return "{" + extra + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		n := "soteria_" + promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s%s %d\n", n, n, wrap(""), s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := "soteria_" + promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %d\n", n, n, wrap(""), s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		n := "soteria_" + promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		cum := uint64(0)
		for i, b := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", n, wrap(fmt.Sprintf(`le="%d"`, b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", n, wrap(`le="+Inf"`), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", n, wrap(""), h.Sum, n, wrap(""), h.Count); err != nil {
			return err
		}
	}
	return nil
}
