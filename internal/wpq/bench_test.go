package wpq

import (
	"testing"

	"soteria/internal/nvm"
)

// BenchmarkPush measures one line write into a 16-entry queue over 4
// banks (the shipped shape). fresh writes a new line each time, with the
// producer one service latency behind the previous push so the queue
// drains as fast as it fills: a scan that misses, an enqueue and a device
// write, over lines the device already holds. coalesce rewrites one queued line at a fixed time: a scan that
// hits and a device write.
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
}
