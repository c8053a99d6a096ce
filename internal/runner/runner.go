// Package runner is the unified parallel experiment engine: one worker
// pool drives both the faultsim FIT sweeps and the performance pipeline.
// It adds two properties every evaluation harness in this repository
// shares:
//
//   - determinism — work is scheduled in fixed units whose results do not
//     depend on the worker count (faultsim trial blocks carry their own
//     RNG streams and merge in block order);
//   - progress — long sweeps report done/total and an ETA through one
//     throttled callback.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is one throttled status update for a running sweep.
type Progress struct {
	// Label names the sweep the update concerns.
	Label string
	// Done and Total count completed work units (trial blocks for fault
	// sweeps, simulations for performance sweeps).
	Done, Total int
	// Elapsed is the wall-clock time since the sweep started.
	Elapsed time.Duration
	// ETA extrapolates the remaining time from throughput so far (zero
	// until at least one unit finished).
	ETA time.Duration
}

// Options configures an Engine.
type Options struct {
	// Workers bounds worker-pool parallelism (0 = GOMAXPROCS). Results
	// never depend on it.
	Workers int
	// OnProgress, when non-nil, receives throttled progress updates.
	// It is called from worker goroutines, but never concurrently.
	OnProgress func(Progress)
	// ProgressEvery throttles OnProgress (default 200ms). The final
	// update of a sweep is always delivered.
	ProgressEvery time.Duration
	// OnPoint, when non-nil, receives every completed fault-sweep point
	// with its full result and telemetry snapshot. Calls are serialized
	// and arrive in point order.
	OnPoint func(Point)
}

// Engine executes experiment sweeps through one bounded worker pool.
type Engine struct {
	opt Options
}

// New returns an engine with the given options.
func New(opt Options) *Engine {
	return &Engine{opt: opt}
}

// Workers returns the effective pool size.
func (e *Engine) Workers() int {
	if e.opt.Workers > 0 {
		return e.opt.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs n independent jobs through the worker pool, calling fn(i) for
// each. The first error stops the dispatch of further jobs (in-flight
// jobs finish) and is returned. Progress is reported per completed job
// under the given label.
func (e *Engine) Do(label string, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := e.Workers()
	if workers > n {
		workers = n
	}
	prog := e.newProgress(label, n)
	var next, done atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				prog.step(int(done.Add(1)))
			}
		}()
	}
	wg.Wait()
	prog.finish()
	return firstErr
}

// progressMeter throttles and serializes OnProgress callbacks.
type progressMeter struct {
	e     *Engine
	label string
	total int
	start time.Time
	every time.Duration

	mu   sync.Mutex
	last time.Time
	done int
}

func (e *Engine) newProgress(label string, total int) *progressMeter {
	every := e.opt.ProgressEvery
	if every <= 0 {
		every = 200 * time.Millisecond
	}
	return &progressMeter{e: e, label: label, total: total, start: time.Now(), every: every}
}

// step records that `done` units are complete and maybe emits an update.
func (p *progressMeter) step(done int) {
	if p.e.opt.OnProgress == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if done > p.done {
		p.done = done
	}
	now := time.Now()
	if now.Sub(p.last) < p.every && p.done < p.total {
		return
	}
	p.last = now
	p.emitLocked(now)
}

// finish emits the terminal update (idempotent enough: Done==Total).
func (p *progressMeter) finish() {
	if p.e.opt.OnProgress == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done = p.total
	p.emitLocked(time.Now())
}

func (p *progressMeter) emitLocked(now time.Time) {
	elapsed := now.Sub(p.start)
	var eta time.Duration
	if p.done > 0 && p.done < p.total {
		eta = time.Duration(float64(elapsed) * float64(p.total-p.done) / float64(p.done))
	}
	p.e.opt.OnProgress(Progress{
		Label: p.label, Done: p.done, Total: p.total,
		Elapsed: elapsed, ETA: eta,
	})
}

// WriteProgress returns an OnProgress callback that renders updates as
// single overwritten lines on w (pass os.Stderr from a CLI). It is the
// standard progress sink for the sweep commands.
func WriteProgress(w io.Writer) func(Progress) {
	return func(p Progress) {
		pct := 0.0
		if p.Total > 0 {
			pct = 100 * float64(p.Done) / float64(p.Total)
		}
		if p.Done < p.Total {
			fmt.Fprintf(w, "\r%s: %d/%d (%.1f%%) eta %s   ",
				p.Label, p.Done, p.Total, pct, p.ETA.Round(time.Second))
		} else {
			fmt.Fprintf(w, "\r%s: %d/%d done in %s        \n",
				p.Label, p.Total, p.Total, p.Elapsed.Round(time.Millisecond))
		}
	}
}
