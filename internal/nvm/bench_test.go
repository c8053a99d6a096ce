package nvm

import (
	"math/rand"
	"testing"

	"soteria/internal/ecc"
)

// benchFootprints are the two shapes the wall-clock benchmark drives the
// device in: a cache-resident working set cycled in order (ctrl-write-hot)
// and a 16 MB image addressed uniformly at random (ctrl-read-cold).
var benchFootprints = []struct {
	name   string
	lines  int
	random bool
}{
	{"footprint=512", 512, false},
	{"footprint=256Ki", 256 << 10, true},
}

func benchDevice(b *testing.B, lines int, random bool) (*Device, []uint64) {
	b.Helper()
	d, err := NewDevice(uint64(lines)*LineSize, ecc.NewChipkill())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var l Line
	for i := 0; i < lines; i++ {
		rng.Read(l[:])
		d.Write(uint64(i)*LineSize, &l)
	}
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		idx := i % lines
		if random {
			idx = rng.Intn(lines)
		}
		addrs[i] = uint64(idx) * LineSize
	}
	return d, addrs
}

func BenchmarkDeviceWrite(b *testing.B) {
	for _, f := range benchFootprints {
		b.Run(f.name, func(b *testing.B) {
			d, addrs := benchDevice(b, f.lines, f.random)
			var l Line
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l[i&63]++
				d.Write(addrs[i&(len(addrs)-1)], &l)
			}
		})
	}
}

var sinkRead ReadResult

// BenchmarkDeviceRead reads lines as the write path leaves them, fresh, so
// no decode runs. Its settled rows read the same lines after ClearFaults has
// encoded their check bytes, so every read takes the decode path.
func BenchmarkDeviceRead(b *testing.B) {
	for _, settled := range []bool{false, true} {
		for _, f := range benchFootprints {
			name := f.name
			if settled {
				name = "settled/" + name
			}
			b.Run(name, func(b *testing.B) {
				d, addrs := benchDevice(b, f.lines, f.random)
				if settled {
					d.ClearFaults()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkRead = d.Read(addrs[i&(len(addrs)-1)])
				}
				if sinkRead.Uncorrectable {
					b.Fatal("clean device read uncorrectable:", sinkRead.BadWords)
				}
			})
		}
	}
}
