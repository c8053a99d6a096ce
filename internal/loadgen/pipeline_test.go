package loadgen_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"soteria/internal/devnet"
	"soteria/internal/loadgen"
	"soteria/internal/telemetry"
)

// compile-time: the pipelined wire client is a loadgen pipe connection,
// and its handler type matches the generator's.
var _ loadgen.PipeConn = (*devnet.Pipe)(nil)
var _ devnet.PipeHandler = devnet.PipeHandler(loadgen.PipeHandler(nil))

// pipeParams builds pipelined run params against addr.
func pipeParams(addr string, conns, window, batch int, reg *telemetry.Registry, retry devnet.RetryPolicy) loadgen.Params {
	return loadgen.Params{
		Dial: func() (loadgen.Conn, error) { return devnet.Dial(addr) },
		DialPipe: func(h loadgen.PipeHandler) (loadgen.PipeConn, error) {
			return devnet.DialPipe(addr, devnet.PipeHandler(h), devnet.PipeOptions{
				Options:  devnet.Options{Telemetry: reg, Retry: retry},
				Window:   window,
				MaxBatch: batch,
			})
		},
		Workers:    conns,
		Pipeline:   window,
		Batch:      batch,
		Ops:        600,
		Seed:       42,
		Workload:   "hashmap",
		Resilience: reg,
	}
}

// TestPipelinedRunDeterministic pins the pipelined mode's determinism
// contract: for a fixed grid point, repeated runs on fresh devices yield
// an identical report and a byte-identical server telemetry snapshot.
func TestPipelinedRunDeterministic(t *testing.T) {
	const shards = 4
	for _, conns := range []int{1, 2} {
		var first []byte
		var firstRep *loadgen.Report
		for trial := 0; trial < 2; trial++ {
			dev := newDevice(t, shards)
			addr := serve(t, dev)
			rep, snap, err := loadgen.Run(pipeParams(addr, conns, 4, 16, nil, devnet.RetryPolicy{}))
			if err != nil {
				t.Fatalf("conns=%d trial %d: %v", conns, trial, err)
			}
			if rep.Mode != "pipelined" || rep.Conns != conns {
				t.Fatalf("report mode/conns = %q/%d", rep.Mode, rep.Conns)
			}
			if got := rep.Read.Count + rep.Write.Count + rep.Barriers; got != uint64(rep.Ops) {
				t.Fatalf("conns=%d: %d ops acked, want %d", conns, got, rep.Ops)
			}
			if rep.Read.P95 == 0 || rep.Read.P95 > rep.Read.P99 {
				t.Fatalf("conns=%d: implausible read p95 %v (p99 %v)", conns, rep.Read.P95, rep.Read.P99)
			}
			if trial == 0 {
				first, firstRep = snap, rep
				continue
			}
			if string(snap) != string(first) {
				t.Errorf("conns=%d: telemetry snapshot differs between identical runs", conns)
			}
			if !reflect.DeepEqual(rep, firstRep) {
				t.Errorf("conns=%d: report differs between identical runs:\n%+v\n%+v", conns, rep, firstRep)
			}
		}
	}
}

// TestPipelinedMatchesStopAndWaitOpMix checks the front end is only a
// transport: every stop-and-wait worker count and every pipelined
// (conns, window, batch) point replays the same per-shard streams, so the
// op mix, the read and write latency summaries and the simulated makespan
// all agree, and the pipelined runs pushed batch frames through the
// device.
func TestPipelinedMatchesStopAndWaitOpMix(t *testing.T) {
	const shards = 4
	for _, wl := range []string{"hashmap", "btree"} {
		var base *loadgen.Report
		for _, workers := range []int{1, 2, 4} {
			dev := newDevice(t, shards)
			addr := serve(t, dev)
			rep, _, err := loadgen.Run(loadgen.Params{
				Dial:     func() (loadgen.Conn, error) { return devnet.Dial(addr) },
				Workers:  workers,
				Ops:      600,
				Seed:     42,
				Workload: wl,
			})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = rep
				continue
			}
			sameService(t, fmt.Sprintf("%s stop-and-wait workers=%d", wl, workers), rep, base)
		}
		for _, g := range []struct{ conns, window, batch int }{{1, 4, 32}, {2, 4, 16}, {4, 8, 64}} {
			dev := newDevice(t, shards)
			addr := serve(t, dev)
			p := pipeParams(addr, g.conns, g.window, g.batch, nil, devnet.RetryPolicy{})
			p.Workload = wl
			rep, snap, err := loadgen.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Read.Count != base.Read.Count || rep.Write.Count != base.Write.Count || rep.Barriers != base.Barriers {
				t.Fatalf("op mix differs: pipelined %d/%d/%d vs stop-and-wait %d/%d/%d",
					rep.Read.Count, rep.Write.Count, rep.Barriers, base.Read.Count, base.Write.Count, base.Barriers)
			}
			sameService(t, fmt.Sprintf("%s pipelined %+v", wl, g), rep, base)
			var counters struct {
				Counters map[string]uint64 `json:"counters"`
			}
			if err := json.Unmarshal(snap, &counters); err != nil {
				t.Fatal(err)
			}
			if counters.Counters["device_batches_total"] == 0 {
				t.Fatalf("pipelined run pushed no batches through the device: %v", counters.Counters)
			}
		}
	}
}

// sameService fails unless rep saw the service base saw: identical read
// and write latency summaries and simulated makespan.
func sameService(t *testing.T, what string, rep, base *loadgen.Report) {
	t.Helper()
	if rep.Read != base.Read || rep.Write != base.Write || rep.SimNanos != base.SimNanos {
		t.Errorf("%s: service differs from stop-and-wait workers=1:\nread  %+v\n      %+v\nwrite %+v\n      %+v\nsim   %v vs %v",
			what, rep.Read, base.Read, rep.Write, base.Write, rep.SimNanos, base.SimNanos)
	}
}

// frameKillingProxy relays TCP to a backend but closes connection i
// after schedule[i] response frames — the loadgen-level twin of the
// devnet retransmit test, exercising the generator's resilience
// accounting end to end.
type frameKillingProxy struct {
	ln       net.Listener
	backend  string
	schedule []int

	mu    sync.Mutex
	conns int
}

func startFrameKillingProxy(t *testing.T, backend string, schedule []int) *frameKillingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp := &frameKillingProxy{ln: ln, backend: backend, schedule: schedule}
	go fp.run()
	t.Cleanup(func() { ln.Close() })
	return fp
}

func (fp *frameKillingProxy) run() {
	for {
		client, err := fp.ln.Accept()
		if err != nil {
			return
		}
		fp.mu.Lock()
		idx := fp.conns
		fp.conns++
		fp.mu.Unlock()
		budget := -1
		if idx < len(fp.schedule) {
			budget = fp.schedule[idx]
		}
		server, err := net.Dial("tcp", fp.backend)
		if err != nil {
			client.Close()
			continue
		}
		go func() { io.Copy(server, client); server.Close() }()
		go func() {
			var hdr [8]byte
			buf := make([]byte, 64<<10)
			for n := 0; budget < 0 || n < budget; n++ {
				if _, err := io.ReadFull(server, hdr[:]); err != nil {
					break
				}
				size := int(binary.BigEndian.Uint32(hdr[:4]))
				if size > len(buf) {
					buf = make([]byte, size)
				}
				if _, err := io.ReadFull(server, buf[:size]); err != nil {
					break
				}
				if _, err := client.Write(hdr[:]); err != nil {
					break
				}
				if _, err := client.Write(buf[:size]); err != nil {
					break
				}
			}
			client.Close()
			server.Close()
		}()
	}
}

// TestPipelinedLoadgenResilienceCounters drives a pipelined run through
// a deterministic connection-kill schedule and checks the window-aware
// accounting the report surfaces: recovery is reconnects plus go-back-N
// batch retransmits, never per-op retries, nothing gives up, and every
// op is still acked exactly once.
func TestPipelinedLoadgenResilienceCounters(t *testing.T) {
	const shards = 4
	dev := newDevice(t, shards)
	backend := serve(t, dev)
	// Proxy connection 0 is the run's control connection (Info +
	// Snapshot, two frames — leave it alone); the pipe dials next, so
	// slots 1 and 2 kill the pipe's first two connections.
	fp := startFrameKillingProxy(t, backend, []int{1000, 2, 3})

	reg := telemetry.NewRegistry()
	retry := devnet.RetryPolicy{
		MaxAttempts: -1,
		MaxElapsed:  30 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	}
	rep, _, err := loadgen.Run(pipeParams(fp.ln.Addr().String(), 1, 4, 8, reg, retry))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Read.Count + rep.Write.Count + rep.Barriers; got != uint64(rep.Ops) {
		t.Fatalf("%d ops acked through kill schedule, want %d", got, rep.Ops)
	}
	// The content oracle ran through the kills: retransmitted batches
	// replay their original results, so no read was reported stale.
	if rep.Verified == 0 {
		t.Fatal("no reads verified through the kill schedule")
	}
	want := map[string]func(v uint64) bool{
		"devnet_client_reconnects_total":        func(v uint64) bool { return v >= 2 },
		"devnet_client_batch_retransmits_total": func(v uint64) bool { return v > 0 },
		"devnet_client_retries_total":           func(v uint64) bool { return v == 0 },
		"devnet_client_gave_up_total":           func(v uint64) bool { return v == 0 },
	}
	got := map[string]uint64{}
	for _, c := range rep.Resilience {
		got[c.Name] = c.Value
	}
	for name, ok := range want {
		if !ok(got[name]) {
			t.Errorf("%s = %d violates the resilience contract (%v)", name, got[name], got)
		}
	}
}
