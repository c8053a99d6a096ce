package wpq

import (
	"testing"

	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// BenchmarkPush measures one line write into a 16-entry queue over 4
// banks (the shipped shape). fresh writes a new line each time, with the
// producer one service latency behind the previous push so the queue
// drains as fast as it fills: a scan that misses, an enqueue and a device
// write, over lines the device already holds. coalesce rewrites one
// queued line at a fixed time: a scan that hits and a device write. full
// is the controller's write path (ctrl-write-hot makes 3.04 pushes and
// 1.77 coalesced writes per op): the producer outruns the banks so the
// queue stays at 16 of 16 and fresh writes stall, 7 of every 12 pushes
// rewrite one of the last three lines enqueued, and every third push is
// followed by a read-side Pending of a line not queued.
func BenchmarkPush(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		q, dev := newQ(b, 16, 4)
		const lines = 1024
		var l nvm.Line
		for a := uint64(0); a < lines*nvm.LineSize; a += nvm.LineSize {
			dev.Write(a, &l) // materialize every line before timing
		}
		now := q.writeLat
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now, _ = q.PushReport(now, uint64(i%lines)*nvm.LineSize, &l)
			now += q.writeLat
		}
	})
	b.Run("coalesce", func(b *testing.B) {
		q, _ := newQ(b, 16, 4)
		var l nvm.Line
		for i := 0; i < 15; i++ {
			q.Push(0, uint64(i)*nvm.LineSize, &l)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, coalesced := q.PushReport(0, 14*nvm.LineSize, &l); !coalesced {
				b.Fatal("push to a queued line did not coalesce")
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		q, dev := newQ(b, 16, 4)
		const lines = 1024
		var l nvm.Line
		for a := uint64(0); a < 2*lines*nvm.LineSize; a += nvm.LineSize {
			dev.Write(a, &l)
		}
		var (
			now    sim.Time
			fresh  uint64
			recent [3]uint64 // the last three lines enqueued
		)
		push := func(i int) {
			addr := recent[i%3]
			if i%12 < 5 {
				addr = fresh % lines * nvm.LineSize
				recent[fresh%3] = addr
				fresh++
			}
			now, _ = q.PushReport(now, addr, &l)
			if i%3 == 0 {
				q.Pending(now, (lines+uint64(i)%lines)*nvm.LineSize)
			}
			now += q.writeLat / 16
		}
		for i := 0; i < 1200; i++ {
			push(i)
		}
		if d := q.Depth(now); d != q.Capacity() {
			b.Fatalf("warm queue at depth %d, want %d", d, q.Capacity())
		}
		before := q.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			push(i)
		}
		after := q.Stats()
		b.ReportMetric(float64(after.Coalesced-before.Coalesced)/float64(b.N), "coalesced/push")
		b.ReportMetric(float64(after.Stalls-before.Stalls)/float64(b.N), "stalls/push")
	})
}
