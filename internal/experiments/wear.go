package experiments

import (
	"math/rand"

	"soteria/internal/stats"
)

// WearLeveling demonstrates the Start-Gap substrate (§2.3/§7 background):
// hot-spotted write streams with and without leveling, reporting the
// max/mean wear ratio (1.0 = perfectly even).
func WearLeveling(lines uint64, writes int, psi uint64, seed int64) (*stats.Table, error) {
	if lines == 0 {
		lines = 4096
	}
	if writes == 0 {
		writes = 2_000_000
	}
	if psi == 0 {
		psi = 100
	}
	t := stats.NewTable("Start-Gap wear leveling — max/mean wear (1.0 = even)",
		"write pattern", "unleveled", "start-gap", "improvement x", "move overhead %")

	patterns := []struct {
		name string
		next func(rng *rand.Rand, i int) uint64
	}{
		{"uniform random", func(rng *rand.Rand, i int) uint64 { return rng.Uint64() % lines }},
		{"90% one hot line", func(rng *rand.Rand, i int) uint64 {
			if rng.Intn(10) != 0 {
				return 7
			}
			return rng.Uint64() % lines
		}},
		{"zipf hot set", func(rng *rand.Rand, i int) uint64 {
			z := rng.Uint64() % lines
			for k := 0; k < 3; k++ { // crude skew: min of draws
				if w := rng.Uint64() % lines; w < z {
					z = w
				}
			}
			return z
		}},
		{"sequential sweep", func(rng *rand.Rand, i int) uint64 { return uint64(i) % lines }},
	}

	for _, p := range patterns {
		rng := rand.New(rand.NewSource(seed))
		unleveled := make([]uint64, lines)
		leveledWear := make([]uint64, lines+1)
		store := make([][64]byte, lines+1)
		region, err := newWearRegion(lines, psi,
			func(phys uint64) [64]byte { return store[phys] },
			func(phys uint64, d *[64]byte) { leveledWear[phys]++; store[phys] = *d })
		if err != nil {
			return nil, err
		}
		var v [64]byte
		for i := 0; i < writes; i++ {
			la := p.next(rng, i)
			unleveled[la]++
			region.Write(la, &v)
		}
		un := wearSpread(unleveled)
		lv := wearSpread(leveledWear)
		improvement := 0.0
		if lv > 0 {
			improvement = un / lv
		}
		overhead := float64(region.sg.Moves()) / float64(writes) * 100
		t.AddRow(p.name, un, lv, improvement, overhead)
	}
	return t, nil
}
