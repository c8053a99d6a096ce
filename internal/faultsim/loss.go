package faultsim

import (
	"fmt"
	"sort"

	"soteria/internal/config"
	"soteria/internal/core"
	"soteria/internal/itree"
)

// The DIMM's physical-to-linear address mapping interleaves banks at
// one-row granularity (LSB to MSB: column, bank, row, rank), the
// conventional open-page mapping. Fine-grained bank interleaving matters
// for Soteria: it is what places a node's home copy and its clones in
// different banks with high probability, so a two-chip bank-fault
// intersection rarely kills every copy.

// interval is a half-open byte range [Lo, Hi).
type interval struct{ Lo, Hi uint64 }

// intervalSet is a merged, sorted list of disjoint intervals.
type intervalSet struct{ iv []interval }

func (s *intervalSet) add(lo, hi uint64) {
	if lo >= hi {
		return
	}
	s.iv = append(s.iv, interval{lo, hi})
}

// normalize sorts and merges.
func (s *intervalSet) normalize() {
	if len(s.iv) < 2 {
		return
	}
	sort.Slice(s.iv, func(i, j int) bool { return s.iv[i].Lo < s.iv[j].Lo })
	out := s.iv[:1]
	for _, v := range s.iv[1:] {
		last := &out[len(out)-1]
		if v.Lo <= last.Hi {
			if v.Hi > last.Hi {
				last.Hi = v.Hi
			}
			continue
		}
		out = append(out, v)
	}
	s.iv = out
}

// size returns the total bytes covered.
func (s *intervalSet) size() uint64 {
	var t uint64
	for _, v := range s.iv {
		t += v.Hi - v.Lo
	}
	return t
}

// touchesLine reports whether any byte of the 64-byte line at addr is in
// the set (binary search; the set must be normalized).
func (s *intervalSet) touchesLine(addr uint64) bool {
	lo, hi := addr, addr+64
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].Hi > lo })
	return i < len(s.iv) && s.iv[i].Lo < hi
}

// overlap returns the bytes of s that fall inside [lo, hi).
func (s *intervalSet) overlap(lo, hi uint64) uint64 {
	var t uint64
	for _, v := range s.iv {
		a, b := maxu(v.Lo, lo), minu(v.Hi, hi)
		if a < b {
			t += b - a
		}
	}
	return t
}

// minus returns size(s \ o); both sets must be normalized.
func (s *intervalSet) minus(o *intervalSet) uint64 {
	var t uint64
	j := 0
	for _, v := range s.iv {
		lo := v.Lo
		for j < len(o.iv) && o.iv[j].Hi <= lo {
			j++
		}
		k := j
		for lo < v.Hi {
			if k >= len(o.iv) || o.iv[k].Lo >= v.Hi {
				t += v.Hi - lo
				break
			}
			if o.iv[k].Lo > lo {
				t += o.iv[k].Lo - lo
			}
			lo = o.iv[k].Hi
			k++
		}
	}
	return t
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minu(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// linearIntervals converts a rank-space rectangle into linear byte
// intervals under the row-granular bank interleaving described above.
func linearIntervals(d config.DIMMConfig, r Rect, out *intervalSet) {
	beat := uint64(d.BytesPerBeat())
	rowBytes := uint64(d.Cols) * beat
	fullCols := r.C0 == 0 && r.C1 == d.Cols-1
	fullBanks := r.B0 == 0 && r.B1 == d.Banks-1
	base := func(row, bank int) uint64 {
		return ((uint64(r.Rank)*uint64(d.Rows)+uint64(row))*uint64(d.Banks) + uint64(bank)) * rowBytes
	}
	switch {
	case fullCols && fullBanks:
		// Contiguous across the whole row range.
		out.add(base(r.R0, 0), base(r.R1, d.Banks-1)+rowBytes)
	case fullCols:
		for row := r.R0; row <= r.R1; row++ {
			for bank := r.B0; bank <= r.B1; bank++ {
				out.add(base(row, bank), base(row, bank)+rowBytes)
			}
		}
	default:
		for row := r.R0; row <= r.R1; row++ {
			for bank := r.B0; bank <= r.B1; bank++ {
				lo := base(row, bank) + uint64(r.C0)*beat
				out.add(lo, lo+uint64(r.C1-r.C0+1)*beat)
			}
		}
	}
}

// Scheme is one protection scheme instantiated over the DIMM: a clone
// policy plus the layout it implies. Data capacity is the largest size
// whose metadata, clones and shadow region still fit on the DIMM.
type Scheme struct {
	Name   string
	Policy core.ClonePolicy
	Layout *itree.Layout
	// Secure is false for the plain (non-secure) memory, which has no
	// metadata and loses only L_error.
	Secure bool
	// RecomputableAbove marks tree levels strictly above it as re-derived
	// at recovery rather than lost, so their faults cost no coverage; 0
	// means none. A BMT-style tree (§6.1) sets 1: an intermediate node is
	// just a hash of its children, so only leaf (encryption counter)
	// faults render data unverifiable. The ToC trades this
	// recomputability away for parallel updates and stronger replay
	// resistance, which is exactly the gap Soteria's clones fill.
	// Triad-style selective persistence of N levels sets N+1: level N+1's
	// stored counters seed the bounded recovery search and so still
	// matter, while everything above it is rewritten wholesale.
	RecomputableAbove int
}

// NonSecureScheme is the conventional memory: the whole DIMM is data, and
// its layout has no metadata regions at all.
func NonSecureScheme(d config.DIMMConfig) *Scheme {
	c := d.CapacityBytes()
	lay := &itree.Layout{DataBytes: c, DataBlocks: c / itree.BlockSize, Total: c}
	return &Scheme{Name: "non-secure", Layout: lay, Secure: false}
}

// BuildScheme sizes a secure layout (with the policy's clones and a shadow
// region of the given slot count) to fit the DIMM capacity.
func BuildScheme(d config.DIMMConfig, policy core.ClonePolicy, shadowSlots uint64) (*Scheme, error) {
	capacity := d.CapacityBytes()
	// Binary search the largest data size (in 1 MiB steps) that fits.
	lo, hi := uint64(1), capacity>>20
	// Regions start on bank-stripe boundaries (one row per bank under
	// the row-granular interleave), so small regions — notably the tiny
	// upper-level clone regions — land in distinct banks.
	rowBytes := uint64(d.Cols * d.BytesPerBeat())
	build := func(mib uint64) (*itree.Layout, error) {
		return policy.Layout(itree.Params{
			DataBytes:     mib << 20,
			CounterArity:  64,
			TreeArity:     8,
			ShadowEntries: shadowSlots,
			RegionAlign:   rowBytes,
			// Clones live at the bottom of the address space — the
			// opposite rank from the home copies on this two-rank
			// DIMM. Ranks fail independently under Chipkill, so a
			// same-rank double fault can never take a node and its
			// clone together.
			CloneRegionsFirst: true,
		})
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		lay, err := build(mid)
		if err != nil {
			return nil, err
		}
		if lay.Total <= capacity {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	lay, err := build(lo)
	if err != nil {
		return nil, err
	}
	if lay.Total > capacity {
		return nil, fmt.Errorf("faultsim: no layout fits %d bytes", capacity)
	}
	return &Scheme{Name: policy.Name, Policy: policy, Layout: lay, Secure: true}, nil
}

// Loss evaluates the paper's loss metrics for this scheme given a trial's
// uncorrectable rectangles:
//
//	lErr — bytes of the data region that themselves hold uncorrectable
//	       errors (lost on any memory, secure or not);
//	lUnv — error-free data bytes rendered unverifiable because every copy
//	       of some covering metadata node is uncorrectable (zero for the
//	       non-secure scheme).
//
// Data-MAC-region losses are not counted: a data MAC is recomputable from
// the (intact) ciphertext and counter, so its loss is repairable.
func (s *Scheme) Loss(d config.DIMMConfig, rects []Rect) (lErr, lUnv uint64) {
	if len(rects) == 0 {
		return 0, 0
	}
	var u intervalSet
	for _, r := range rects {
		linearIntervals(d, r, &u)
	}
	u.normalize()

	lErr = u.overlap(s.Layout.DataBase, s.Layout.DataBase+s.Layout.DataBytes)
	if !s.Secure {
		return lErr, 0
	}

	// For every tree level, a node is unverifiable only when its home
	// copy AND every clone intersect the uncorrectable set. Home losses
	// come from cheap interval math; the (permuted) clone copies of each
	// home-lost node are then probed individually — the candidate set is
	// already narrowed to the home losses, so enumeration stays small.
	var lost intervalSet
	for _, li := range s.Layout.Levels {
		if s.RecomputableAbove > 0 && li.Level > s.RecomputableAbove {
			continue // regenerate from children instead of losing coverage
		}
		lostIdx := lostNodeIndices(&u, li.Base, li.Nodes)
		for _, ix := range lostIdx {
			for i := ix.Lo; i < ix.Hi; i++ {
				dead := true
				for c := range li.CloneBases {
					a := s.Layout.CloneAddr(li.Level, i, c)
					if !u.touchesLine(a) {
						dead = false
						break
					}
				}
				if !dead {
					continue
				}
				lo, hi := s.Layout.CoverageOf(li.Level, i)
				lost.add(lo, hi)
			}
		}
	}
	lost.normalize()
	// Unverifiable counts only data that is not already lost to direct
	// errors (L_total = L_error + L_unverifiable is a disjoint sum in
	// Fig 12).
	lUnv = lost.minus(&u)
	return lErr, lUnv
}

// idxRange is a half-open range of node indices.
type idxRange struct{ Lo, Hi uint64 }

// lostNodeIndices returns the node-index ranges of a region whose 64-byte
// lines intersect the uncorrectable set.
func lostNodeIndices(u *intervalSet, base uint64, nodes uint64) []idxRange {
	end := base + nodes*itree.BlockSize
	var out []idxRange
	for _, v := range u.iv {
		lo, hi := maxu(v.Lo, base), minu(v.Hi, end)
		if lo >= hi {
			continue
		}
		i0 := (lo - base) / itree.BlockSize
		i1 := (hi - base + itree.BlockSize - 1) / itree.BlockSize
		if n := len(out); n > 0 && out[n-1].Hi >= i0 {
			if i1 > out[n-1].Hi {
				out[n-1].Hi = i1
			}
			continue
		}
		out = append(out, idxRange{i0, i1})
	}
	return out
}
