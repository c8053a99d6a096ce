package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// resultSet is a file of concatenated documents: per workload and end-to-end
// metric, the values of every run, which must all be timed runs of one seed
// and one set of frozen op counts.
type resultSet struct {
	seed       int64
	segmentOps map[string]int
	values     map[string]map[string][]float64
}

func readSet(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &resultSet{segmentOps: map[string]int{}, values: map[string]map[string][]float64{}}
	dec := json.NewDecoder(f)
	for n := 0; ; n++ {
		var doc document
		if err := dec.Decode(&doc); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if doc.Trace != 0 {
			return nil, fmt.Errorf("%s: document %d is a traced run; -compare reads timed runs", path, n+1)
		}
		if n == 0 {
			set.seed = doc.Seed
		} else if doc.Seed != set.seed {
			return nil, fmt.Errorf("%s: document %d has seed %d, the first %d", path, n+1, doc.Seed, set.seed)
		}
		for _, r := range doc.Runs {
			if set.values[r.Workload] == nil {
				set.values[r.Workload] = map[string][]float64{}
				set.segmentOps[r.Workload] = r.SegmentOps
			} else if r.SegmentOps != set.segmentOps[r.Workload] {
				return nil, fmt.Errorf("%s: document %d runs %s with %d ops per segment, an earlier one %d",
					path, n+1, r.Workload, r.SegmentOps, set.segmentOps[r.Workload])
			}
			for name, v := range r.Outcome.Metrics {
				set.values[r.Workload][name] = append(set.values[r.Workload][name], v.Value)
			}
		}
	}
	if len(set.values) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return set, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return v[0], v[0]
	}
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// share is d as a share of base. Nothing is a share of zero: any move away
// from a zero base is unbounded.
func share(d, base float64) float64 {
	switch {
	case base != 0:
		return d / math.Abs(base)
	case d > 0:
		return math.Inf(1)
	case d < 0:
		return math.Inf(-1)
	}
	return 0
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return share(q3-q1, median(v))
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if higher && y <= x || !higher && y >= x {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload and end-to-end metric, both medians, how
// much worse b is than a, the bound, and a verdict: ok, worse, or unresolved
// when the spread between a set's own runs is wider than the bound. It
// returns true when any row is worse or unresolved.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	if a.seed != b.seed {
		return false, fmt.Errorf("%s has seed %d, %s seed %d", pathA, a.seed, pathB, b.seed)
	}
	for name, n := range a.segmentOps {
		if m, ok := b.segmentOps[name]; ok && m != n {
			return false, fmt.Errorf("%s: %d ops per segment in %s, %d in %s", name, n, pathA, m, pathB)
		}
	}
	bad := false
	fmt.Fprintf(out, "%-18s %-18s %5s %14s %14s %9s %7s  %s\n", "workload", "metric", "runs", "a median", "b median", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values[w.name][d.Name], b.values[w.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-18s %-18s %5s %14s %14s %9s %7s  missing\n", w.name, d.Name, "-", "-", "-", "-", "-")
				bad = true
				continue
			}
			ma, mb := median(va), median(vb)
			higher := d.Better == "higher"
			worseBy := share(mb-ma, ma)
			if higher {
				worseBy = -worseBy
			}
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", d.Bound*100)
			switch {
			case exactMetrics[d.Name]:
				// Deterministic for one seed: any difference is a change.
				bound = "exact"
				if all := slices.Concat(va, vb); slices.Min(all) == slices.Max(all) {
					break
				}
				verdict = "ok (better)"
				if worseBy > 0 {
					verdict = "worse"
				}
			case (spread(va) > d.Bound || spread(vb) > d.Bound) && !allBetter(va, vb, higher):
				verdict = "unresolved"
			case worseBy > d.Bound:
				verdict = "worse"
			}
			bad = bad || verdict == "worse" || verdict == "unresolved"
			fmt.Fprintf(out, "%-18s %-18s %2d/%-2d %14.4f %14.4f %+8.2f%% %7s  %s\n",
				w.name, d.Name, len(va), len(vb), ma, mb, worseBy*100, bound, verdict)
		}
	}
	return bad, nil
}
