// Package workload synthesizes the memory-access patterns of the
// applications the paper evaluates (§4): the in-house uBENCH-X
// microbenchmarks, Whisper-style persistent-memory applications, a
// PMEMKV-style key-value store, and SPEC CPU 2006-style non-persistent
// applications.
//
// The real benchmark binaries and their gem5 checkpoints are not
// reproducible here, so each generator reproduces the *access pattern* that
// drives the paper's metrics — footprint, read/write mix, locality,
// persist-barrier frequency — which is what determines metadata-cache
// eviction behaviour (Fig 4, Fig 10c) and therefore Soteria's overheads
// (Fig 10a/b). The substitution is documented in DESIGN.md.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"soteria/internal/trace"
)

// Class groups workloads the way the paper's figures do.
type Class int

// Workload classes.
const (
	// ClassMicro is the in-house uBENCH family.
	ClassMicro Class = iota
	// ClassPersistent covers Whisper-style and PMEMKV-style persistent
	// applications (stores use clwb+fence idioms).
	ClassPersistent
	// ClassSPEC covers non-persistent SPEC-like applications.
	ClassSPEC
)

func (c Class) String() string {
	switch c {
	case ClassMicro:
		return "micro"
	case ClassPersistent:
		return "persistent"
	case ClassSPEC:
		return "spec"
	default:
		return "?"
	}
}

// Workload couples a named generator factory with its class.
type Workload struct {
	Name  string
	Class Class
	// New builds a fresh generator over a data footprint of the given
	// size with the given seed.
	New func(footprint uint64, seed int64) trace.Generator
}

// UBench returns the paper's uBENCH X microbenchmark: it "accesses one byte
// after every X bytes in sequential manner with read/write ratio of 1".
func UBench(stride uint64) Workload {
	name := fmt.Sprintf("uBENCH%d", stride)
	return Workload{
		Name:  name,
		Class: ClassMicro,
		New: func(footprint uint64, seed int64) trace.Generator {
			var pos uint64
			read := true
			return trace.NewFunc(name, func(r *trace.Record) bool {
				r.Addr = pos % footprint
				r.Gap = 2
				if read {
					r.Op = trace.OpRead
				} else {
					r.Op = trace.OpWritePersist
					pos += stride
				}
				read = !read
				return true
			})
		},
	}
}

// zipfGen builds a Zipf address sampler over n items.
func zipfGen(rng *rand.Rand, n uint64, skew float64) *rand.Zipf {
	if n < 2 {
		n = 2
	}
	return rand.NewZipf(rng, skew, 1, n-1)
}

// kvPattern is the shared machinery for hash/KV-style workloads: reads
// probe a table region with some distribution; writes update a record and
// append to a log, followed by a persist barrier.
type kvPattern struct {
	name       string
	rng        *rand.Rand
	zipf       *rand.Zipf
	footprint  uint64
	writePct   int // percent of operations that are updates
	logRegion  uint64
	logPos     uint64
	probeReads int // reads per operation (bucket walk / tree descent)
	probeSpan  uint64
	persist    bool

	// in-flight operation state
	pending []trace.Record
}

func (k *kvPattern) Name() string { return k.name }

func (k *kvPattern) Next(r *trace.Record) bool {
	if len(k.pending) == 0 {
		k.synthesize()
	}
	*r = k.pending[0]
	k.pending = k.pending[1:]
	return true
}

func (k *kvPattern) synthesize() {
	var home uint64
	if k.zipf != nil {
		home = k.zipf.Uint64() * 64 % k.footprint
	} else {
		home = k.rng.Uint64() % k.footprint
	}
	// Probe chain: locality-decreasing reads around the home record.
	addr := home
	for i := 0; i < k.probeReads; i++ {
		k.pending = append(k.pending, trace.Record{Op: trace.OpRead, Addr: addr, Gap: 6})
		addr = (addr + (k.rng.Uint64()%k.probeSpan+1)*64) % k.footprint
	}
	if k.rng.Intn(100) < k.writePct {
		wop := trace.OpWrite
		if k.persist {
			wop = trace.OpWritePersist
		}
		// Update the record itself.
		k.pending = append(k.pending, trace.Record{Op: wop, Addr: home, Gap: 4})
		// Append to the (undo/redo) log region.
		if k.persist {
			logAddr := k.logRegion + (k.logPos%(k.footprint/8))/64*64
			k.logPos += 64
			k.pending = append(k.pending, trace.Record{Op: trace.OpWritePersist, Addr: logAddr, Gap: 2})
			k.pending = append(k.pending, trace.Record{Op: trace.OpBarrier, Gap: 1})
		}
	}
}

// persistentKV builds a Whisper/PMEMKV-style workload.
func persistentKV(name string, writePct, probeReads int, probeSpan uint64, skew float64) Workload {
	return Workload{
		Name:  name,
		Class: ClassPersistent,
		New: func(footprint uint64, seed int64) trace.Generator {
			rng := rand.New(rand.NewSource(seed))
			k := &kvPattern{
				name:       name,
				rng:        rng,
				footprint:  footprint * 7 / 8,
				writePct:   writePct,
				logRegion:  footprint * 7 / 8,
				probeReads: probeReads,
				probeSpan:  probeSpan,
				persist:    true,
			}
			if skew > 1 {
				k.zipf = zipfGen(rng, k.footprint/64, skew)
			}
			return k
		},
	}
}

// specLike builds a non-persistent workload from a mix of sequential and
// random accesses. Stores exhibit the page-level clustering of real
// applications: a write goes to one of the recently touched pages rather
// than a fresh random address, so consecutive stores share split-counter
// blocks the way compiled code's stores share stack frames and heap
// objects. Without this, every store would dirty a distinct counter block
// and the metadata write traffic would be wildly unrealistic.
func specLike(name string, writePct int, seqPct int, stride uint64, gap uint32) Workload {
	const (
		recentPages = 48
		hotWritePct = 70
	)
	return Workload{
		Name:  name,
		Class: ClassSPEC,
		New: func(footprint uint64, seed int64) trace.Generator {
			rng := rand.New(rand.NewSource(seed))
			var seq, hot uint64
			hotBase := footprint / 2 &^ 4095
			// The hot write region sweeps sequentially over a quarter
			// of the footprint — larger than any LLC, so dirty lines
			// stream out to memory, but spatially dense, so the
			// stores covered by one split-counter block arrive
			// together (the write clustering real programs exhibit).
			hotBytes := footprint / 4 &^ 4095
			if hotBytes < 4096 {
				hotBytes = 4096
			}
			recent := make([]uint64, 0, recentPages)
			pos := 0
			return trace.NewFunc(name, func(r *trace.Record) bool {
				r.Gap = gap
				if rng.Intn(100) < seqPct {
					seq += stride
					r.Addr = seq % footprint
				} else {
					r.Addr = rng.Uint64() % footprint
				}
				if rng.Intn(100) < writePct && len(recent) > 0 {
					// Most stores hit the hot region (stack frames,
					// hot heap objects) — tightly clustered, so they
					// share split-counter blocks. The rest update
					// recently read pages (read-modify-write).
					if rng.Intn(100) < hotWritePct {
						hot += 64
						r.Addr = hotBase + hot%hotBytes
					} else {
						page := recent[rng.Intn(len(recent))]
						r.Addr = page + rng.Uint64()%4096
					}
					if r.Addr >= footprint {
						r.Addr %= footprint
					}
					r.Op = trace.OpWrite
					return true
				}
				r.Op = trace.OpRead
				page := r.Addr &^ 4095
				if len(recent) < recentPages {
					recent = append(recent, page)
				} else {
					recent[pos] = page
					pos = (pos + 1) % recentPages
				}
				return true
			})
		},
	}
}

// Queue is the Whisper-style persistent FIFO: strictly sequential persisted
// writes at the head, reads at the tail, a barrier per enqueue.
func queueWorkload() Workload {
	return Workload{
		Name:  "queue",
		Class: ClassPersistent,
		New: func(footprint uint64, seed int64) trace.Generator {
			var head, tail uint64
			step := 0
			return trace.NewFunc("queue", func(r *trace.Record) bool {
				switch step {
				case 0:
					r.Op = trace.OpWritePersist
					r.Addr = head % footprint
					head += 64
					r.Gap = 4
				case 1:
					r.Op = trace.OpBarrier
					r.Gap = 1
				case 2:
					r.Op = trace.OpRead
					r.Addr = tail % footprint
					tail += 64
					r.Gap = 4
				}
				step = (step + 1) % 3
				return true
			})
		},
	}
}

// All returns the full workload suite used by the paper's figures.
func All() []Workload {
	return []Workload{
		// In-house microbenchmarks (§4).
		UBench(16),
		UBench(64),
		UBench(128),
		UBench(256),
		// Whisper-style persistent applications. Real key-value and
		// transaction workloads are skewed, so each carries a mild Zipf
		// distribution; skew drives the metadata-cache hit rates of
		// Fig 10c.
		persistentKV("hashmap", 40, 2, 4, 1.1),
		persistentKV("btree", 35, 4, 64, 1.15),
		persistentKV("rbtree", 35, 6, 128, 1.15),
		queueWorkload(),
		persistentKV("tpcc", 55, 3, 16, 1.1),
		persistentKV("ycsb", 30, 2, 8, 1.3),
		// PMEMKV.
		persistentKV("pmemkv", 25, 3, 32, 1.2),
		// SPEC CPU 2006-style non-persistent applications.
		specLike("mcf", 18, 10, 64, 3),        // pointer-chasing, read-heavy
		specLike("lbm", 45, 95, 64, 2),        // streaming stencil
		specLike("libquantum", 25, 98, 64, 1), /* sequential sweeps */
		specLike("milc", 35, 70, 256, 3),
		specLike("astar", 20, 30, 128, 4),
		specLike("gcc", 30, 50, 64, 6),
		specLike("bzip2", 28, 85, 64, 4),
		specLike("gobmk", 22, 40, 128, 8),
	}
}

// ByName returns the named workload from All.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q (known: %s)", name, strings.Join(Names(), ", "))
}

// ByNameMust is ByName for known-good names; it panics on error.
func ByNameMust(name string) Workload {
	w, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Names lists the suite's workload names in figure order.
func Names() []string {
	ws := All()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
