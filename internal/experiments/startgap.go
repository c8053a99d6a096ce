package experiments

// Start-Gap wear leveling (Qureshi et al., MICRO 2009), the endurance
// mechanism the paper's related-work section names as table stakes for PCM
// main memories (§2.3, §7), for the WearLeveling table. Start-Gap spreads
// writes across a region by slowly rotating the logical-to-physical line
// mapping: the region keeps one spare line (the "gap"); every psi writes the
// gap moves down by one line (copying its neighbour into it), and once the
// gap has traversed the whole region the start pointer advances, shifting
// every logical line's physical home by one.
//
// startGap is an address-translation layer: callers ask Translate for the
// physical line of a logical line and report writes via OnWrite, which
// occasionally returns a relocation the caller must perform. It is pure
// bookkeeping — no device access — so it composes with any storage.

import "fmt"

// gapMove describes one relocation the caller must perform: copy the line at
// physical index From into physical index To.
type gapMove struct {
	From, To uint64
}

// startGap is the wear-leveling state for one region of n logical lines
// mapped onto n+1 physical lines.
type startGap struct {
	n     uint64 // logical lines
	start uint64 // rotation offset in [0, n)
	gap   uint64 // spare line position in [0, n]
	psi   uint64 // writes between gap movements
	count uint64 // writes since the last movement

	moves uint64 // total relocations performed
}

// newStartGap creates a Start-Gap leveler for n logical lines, moving the
// gap every psi writes. The original paper uses psi=100, bounding the write
// overhead at 1%.
func newStartGap(n uint64, psi uint64) (*startGap, error) {
	if n == 0 {
		return nil, fmt.Errorf("start-gap: region must have at least one line")
	}
	if psi == 0 {
		return nil, fmt.Errorf("start-gap: psi must be positive")
	}
	return &startGap{n: n, gap: n, psi: psi}, nil
}

// PhysicalLines returns the number of physical lines (one spare).
func (s *startGap) PhysicalLines() uint64 { return s.n + 1 }

// Moves returns the number of gap relocations performed so far.
func (s *startGap) Moves() uint64 { return s.moves }

// Translate maps a logical line index to its current physical line index.
func (s *startGap) Translate(logical uint64) uint64 {
	if logical >= s.n {
		panic(fmt.Sprintf("start-gap: logical line %d out of range (%d)", logical, s.n))
	}
	pa := (logical + s.start) % s.n
	if pa >= s.gap {
		pa++
	}
	return pa
}

// OnWrite records one line write. Every psi writes it returns the
// relocation the caller must perform *before* the new mapping takes effect;
// the returned move copies the line below the gap into the gap, then the
// gap adopts the vacated slot.
func (s *startGap) OnWrite() (gapMove, bool) {
	s.count++
	if s.count < s.psi {
		return gapMove{}, false
	}
	s.count = 0
	var m gapMove
	if s.gap == 0 {
		// Gap wrap: the rotation advances and the gap reopens at the
		// top. Under the new mapping, physical slot 0 must hold the
		// logical line currently stored in slot n, so the wrap step
		// copies top to bottom.
		m = gapMove{From: s.n, To: 0}
		s.start = (s.start + 1) % s.n
		s.gap = s.n
		s.moves++
		return m, true
	}
	m = gapMove{From: s.gap - 1, To: s.gap}
	s.gap--
	s.moves++
	return m, true
}

// wearSpread is a convenience metric for tests and ablations: given
// per-physical-line write counts, it returns max/mean — 1.0 is perfectly
// even wear.
func wearSpread(writes []uint64) float64 {
	if len(writes) == 0 {
		return 0
	}
	var sum, max uint64
	for _, w := range writes {
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(writes))
	return float64(max) / mean
}

// wearRegion couples a startGap with a line-granular store, performing the
// relocations itself — the form the memory controller would embed.
type wearRegion struct {
	sg    *startGap
	read  func(physical uint64) [64]byte
	write func(physical uint64, data *[64]byte)
}

// newWearRegion wraps a store with wear leveling.
func newWearRegion(n, psi uint64, read func(uint64) [64]byte, write func(uint64, *[64]byte)) (*wearRegion, error) {
	sg, err := newStartGap(n, psi)
	if err != nil {
		return nil, err
	}
	return &wearRegion{sg: sg, read: read, write: write}, nil
}

// Read fetches a logical line.
func (r *wearRegion) Read(logical uint64) [64]byte {
	return r.read(r.sg.Translate(logical))
}

// Write stores a logical line, performing any due gap relocation.
func (r *wearRegion) Write(logical uint64, data *[64]byte) {
	r.write(r.sg.Translate(logical), data)
	if m, need := r.sg.OnWrite(); need {
		v := r.read(m.From)
		r.write(m.To, &v)
	}
}
