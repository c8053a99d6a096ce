package device_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/oracle"
)

func newTestDevice(t *testing.T, mutate func(*device.Options)) *device.Device {
	t.Helper()
	opts := device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("device-test-key"),
		Shards: 4,
	}
	if mutate != nil {
		mutate(&opts)
	}
	d, err := device.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// fill is the salt-th payload of the stream named by an address.
func fill(addr uint64, salt uint64) nvm.Line {
	var l nvm.Line
	oracle.Fill(&l, 0, addr, int(salt))
	return l
}

func TestAddressMappingRoundTrip(t *testing.T) {
	d := newTestDevice(t, nil)
	for _, addr := range []uint64{0, 64, 128, 192, 256, 64 * 12345, 4<<20 - 64} {
		s := d.ShardOf(addr)
		if s != int(addr/64%4) {
			t.Fatalf("ShardOf(%#x) = %d, want line interleave", addr, s)
		}
	}
	// Global -> (shard, local) -> global must be the identity.
	for line := uint64(0); line < 64; line++ {
		addr := line * 64
		got := d.GlobalAddr(d.ShardOf(addr), (line/4)*64)
		if got != addr {
			t.Fatalf("mapping round trip: %#x -> %#x", addr, got)
		}
	}
}

func TestReadWriteAcrossShards(t *testing.T) {
	d := newTestDevice(t, nil)
	const n = 64 // touches every shard repeatedly
	for i := uint64(0); i < n; i++ {
		addr := i * 64
		line := fill(addr, 1)
		if _, err := d.Write(addr, &line); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
	}
	for i := uint64(0); i < n; i++ {
		addr := i * 64
		got, lat, err := d.Read(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if want := fill(addr, 1); got != want {
			t.Fatalf("read %#x returned wrong data", addr)
		}
		if lat < 0 {
			t.Fatalf("read %#x: negative latency %v", addr, lat)
		}
	}
	st := d.Stats()
	if st.DataWrites != n || st.DataReads != n {
		t.Fatalf("stats: %d writes, %d reads; want %d each", st.DataWrites, st.DataReads, n)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := d.VerifyAll(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestRejectsBadAddresses(t *testing.T) {
	d := newTestDevice(t, nil)
	if _, _, err := d.Read(7); err == nil {
		t.Fatal("unaligned read accepted")
	}
	if _, _, err := d.Read(4 << 20); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

// gateHook blocks the first write boundary it sees until released, so
// tests can hold an operation inside its shard while others line up on the
// shard lock.
type gateHook struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newGateHook() *gateHook {
	return &gateHook{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateHook) Event(ev inject.Event) {
	if ev.Kind != inject.DeviceWrite {
		return
	}
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
}

func TestCrashRetiresQueuedRequests(t *testing.T) {
	d := newTestDevice(t, func(o *device.Options) { o.Shards = 1 })
	line := fill(0, 4)
	if _, err := d.Write(0, &line); err != nil {
		t.Fatal(err)
	}

	gate := newGateHook()
	if err := d.SetShardHooks([]inject.Hook{gate}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l := fill(64, 4)
		d.Write(64, &l) // parks inside the shard, holding its lock
	}()
	<-gate.started

	// Line three more writes up on the shard lock, then crash: the barrier
	// must retire them unexecuted.
	errs := make([]error, 3)
	for i := range errs {
		i := i
		addr := uint64(2+i) * 64
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := fill(addr, 4)
			_, errs[i] = d.Write(addr, &l)
		}()
	}
	// Let the writes stamp their epoch and block on the lock, then start
	// the crash; the epoch advances before the gate opens, so the waiting
	// writes must retire.
	time.Sleep(100 * time.Millisecond)
	crashDone := make(chan error, 1)
	go func() { crashDone <- d.Crash() }()
	time.Sleep(100 * time.Millisecond)
	close(gate.release)
	if err := <-crashDone; err != nil {
		t.Fatalf("crash: %v", err)
	}
	wg.Wait()
	retired := 0
	for _, err := range errs {
		if errors.Is(err, device.ErrRetired) {
			retired++
		} else if err != nil && !errors.Is(err, memctrl.ErrCrashed) {
			t.Fatalf("queued write after crash: %v", err)
		}
	}
	if retired == 0 {
		t.Fatal("crash barrier retired nothing (gate raced the crash?)")
	}

	// Down until recovery.
	if _, _, err := d.Read(0); !errors.Is(err, memctrl.ErrCrashed) {
		t.Fatalf("read while down: %v", err)
	}
	rep, err := d.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Shards) != 1 || rep.Shards[0] == nil {
		t.Fatalf("recovery report incomplete: %+v", rep)
	}
	if !rep.Clean() {
		t.Fatalf("crash-only recovery not clean: %+v", rep.Shards[0])
	}
	got, _, err := d.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != fill(0, 4) {
		t.Fatal("committed write lost across crash/recover")
	}
}

// TestSnapshotDeterministicPerShardStreams locks the core determinism
// contract: identical per-shard request streams produce byte-identical
// merged telemetry, whether the shards are driven by one goroutine or by
// one goroutine per shard.
func TestSnapshotDeterministicPerShardStreams(t *testing.T) {
	const shards = 4
	const opsPerShard = 200

	run := func(concurrent bool) []byte {
		d := newTestDevice(t, func(o *device.Options) {
			o.Shards = shards
			o.Telemetry = true
		})
		driveShard := func(s int) {
			for i := 0; i < opsPerShard; i++ {
				addr := d.GlobalAddr(s, uint64(i%37)*64)
				if i%3 == 2 {
					if _, _, err := d.Read(addr); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				} else {
					line := fill(addr, uint64(i))
					if _, err := d.Write(addr, &line); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for s := 0; s < shards; s++ {
				wg.Add(1)
				go func(s int) { defer wg.Done(); driveShard(s) }(s)
			}
			wg.Wait()
		} else {
			for s := 0; s < shards; s++ {
				driveShard(s)
			}
		}
		data, err := d.Snapshot().MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return data
	}

	sequential := run(false)
	for i := 0; i < 2; i++ {
		if got := run(true); !bytes.Equal(got, sequential) {
			t.Fatalf("snapshot differs between sequential and concurrent per-shard drivers (attempt %d)", i)
		}
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	d := newTestDevice(t, func(o *device.Options) {
		o.Shards = 4
		o.Telemetry = true
	})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				addr := uint64((w*151+i*7)%2048) * 64
				if i%4 == 0 {
					if _, _, err := d.Read(addr); err != nil {
						t.Errorf("read: %v", err)
					}
				} else {
					line := fill(addr, uint64(w))
					if _, err := d.Write(addr, &line); err != nil {
						t.Errorf("write: %v", err)
					}
				}
			}
		}(w)
	}
	// Snapshots and stats race the load on purpose: both must be safe.
	for i := 0; i < 10; i++ {
		_ = d.Snapshot()
	}
	wg.Wait()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWhileWriting scrapes the telemetry while four writers run:
// every snapshot reads the shards' books under their locks (the race
// detector is the verdict), the exported write count never falls, and the
// last snapshot counts every write.
func TestSnapshotWhileWriting(t *testing.T) {
	d := newTestDevice(t, func(o *device.Options) {
		o.Shards = 4
		o.Telemetry = true
	})
	const writers, writes = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				addr := uint64((w*writes+i)%2048) * 64
				line := fill(addr, uint64(i))
				if _, err := d.Write(addr, &line); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last uint64
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		got := d.Snapshot().Counters["memctrl_data_writes_total"]
		if got < last {
			t.Errorf("memctrl_data_writes_total fell from %d to %d", last, got)
		}
		last = got
	}
	if last != writers*writes {
		t.Fatalf("memctrl_data_writes_total = %d after the writers, want %d", last, writers*writes)
	}
}

// TestRejectionOrder pins the one rejection order of every data op —
// ErrClosed, then an address error, then memctrl.ErrCrashed — across Read,
// Write, Drain and each ExecBatch op code.
func TestRejectionOrder(t *testing.T) {
	const shards = 4
	capacity := config.TestSystem().NVM.CapacityBytes
	crash := func(t *testing.T, d *device.Device) {
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, d *device.Device)
		addr  uint64
		want  error // nil: an address error
	}{
		{name: "closed", addr: 0, want: device.ErrClosed,
			setup: func(t *testing.T, d *device.Device) { d.Close() }},
		{name: "closed beats bad address", addr: 7, want: device.ErrClosed,
			setup: func(t *testing.T, d *device.Device) { d.Close() }},
		{name: "closed beats down", addr: 0, want: device.ErrClosed,
			setup: func(t *testing.T, d *device.Device) { crash(t, d); d.Close() }},
		{name: "unaligned", addr: 7},
		{name: "out-of-range", addr: capacity},
		{name: "bad address beats down", addr: capacity, setup: crash},
		{name: "down", addr: 0, want: memctrl.ErrCrashed, setup: crash},
		{name: "other shard after power cut", addr: nvm.LineSize, want: memctrl.ErrCrashed,
			setup: func(t *testing.T, d *device.Device) { cutPowerOnShard0(t, d, shards) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDevice(t, func(o *device.Options) { o.Shards = shards })
			if tc.setup != nil {
				tc.setup(t, d)
			}
			line := fill(tc.addr, 1)
			batch := []device.BatchOp{
				{Op: device.BatchRead, Addr: tc.addr},
				{Op: device.BatchWrite, Addr: tc.addr, Line: line},
				{Op: device.BatchDrain, Addr: tc.addr},
			}
			res := make([]device.BatchResult, len(batch))
			if err := d.ExecBatch(batch, res); err != nil {
				t.Fatal(err)
			}
			errs := map[string]error{
				"ExecBatch/read": res[0].Err, "ExecBatch/write": res[1].Err, "ExecBatch/drain": res[2].Err,
			}
			_, _, errs["Read"] = d.Read(tc.addr)
			_, errs["Write"] = d.Write(tc.addr, &line)
			errs["Drain"] = d.Drain(tc.addr)
			for op, err := range errs {
				switch {
				case err == nil:
					t.Errorf("%s accepted", op)
				case tc.want != nil && !errors.Is(err, tc.want):
					t.Errorf("%s: got %v, want %v", op, err, tc.want)
				case tc.want == nil && !strings.Contains(err.Error(), "address"):
					t.Errorf("%s: got %v, want an address error", op, err)
				}
			}
		})
	}
}

// TestCloseWaitsForInFlight: Close returns only after an op already inside
// its shard has finished with its real result; ops that were waiting for
// the shard, and every later op, get ErrClosed; a second Close is a no-op.
func TestCloseWaitsForInFlight(t *testing.T) {
	d := newTestDevice(t, func(o *device.Options) { o.Shards = 2 })
	gate := newGateHook()
	if err := d.SetShardHooks([]inject.Hook{gate, nil}); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		line := fill(0, 9)
		_, err := d.Write(0, &line)
		parked <- err
	}()
	<-gate.started

	// A second writer lines up on shard 0's lock before Close begins.
	waiting := make(chan error, 1)
	go func() {
		line := fill(128, 9)
		_, err := d.Write(128, &line)
		waiting <- err
	}()
	time.Sleep(20 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	// Shard 1 is idle, so it answers ErrClosed as soon as Close has begun.
	for {
		if _, _, err := d.Read(64); errors.Is(err, device.ErrClosed) {
			break
		} else if err != nil {
			t.Fatalf("read on the idle shard: %v", err)
		}
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an op was still inside its shard")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate.release)
	if err := <-parked; err != nil {
		t.Fatalf("op in flight at Close: %v, want its real result", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-waiting; !errors.Is(err, device.ErrClosed) {
		t.Fatalf("op waiting for its shard at Close: %v, want ErrClosed", err)
	}
	if _, _, err := d.Read(0); !errors.Is(err, device.ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := d.Flush(); !errors.Is(err, device.ErrClosed) {
		t.Fatalf("flush after close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingHook is deliberately not thread-safe: the race detector flags
// any two shards calling it concurrently.
type countingHook struct{ events int }

func (h *countingHook) Event(inject.Event) { h.events++ }

// TestSharedHookControlIsSerial: with one hook shared by all shards,
// Flush, Crash and Recover visit the shards one at a time (run under
// -race).
func TestSharedHookControlIsSerial(t *testing.T) {
	const shards = 8
	d := newTestDevice(t, func(o *device.Options) { o.Shards = shards })
	h := &countingHook{}
	hooks := make([]inject.Hook, shards)
	for i := range hooks {
		hooks[i] = h
	}
	if err := d.SetShardHooks(hooks); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4*shards; i++ {
		line := fill(i*64, 6)
		if _, err := d.Write(i*64, &line); err != nil {
			t.Fatal(err)
		}
	}
	before := h.events
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if h.events == before {
		t.Fatal("control ops crossed no hook event; the test is vacuous")
	}
}

// TestDeviceOpAllocs pins the steady-state single-op path at zero
// allocations: no request, no response channel, no copy of the line.
func TestDeviceOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	d := newTestDevice(t, nil)
	const lines = 64
	line := fill(0, 8)
	// Warm: fault in the metadata cache and the lazily populated NVM
	// backing lines of the working set.
	for pass := 0; pass < 16; pass++ {
		for i := uint64(0); i < lines; i++ {
			if _, err := d.Write(i*64, &line); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := uint64(0)
	writes := testing.AllocsPerRun(4*lines, func() {
		if _, err := d.Write(i%lines*64, &line); err != nil {
			t.Fatal(err)
		}
		i++
	})
	reads := testing.AllocsPerRun(4*lines, func() {
		if _, _, err := d.Read(i % lines * 64); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if writes != 0 || reads != 0 {
		t.Fatalf("steady state allocates %.2f per Write, %.2f per Read, want 0", writes, reads)
	}
}

// TestDeviceSpawnsNoGoroutines: the device owns no goroutine — building,
// driving and closing a 1024-shard device never raises the count. The
// check is one-sided on purpose: a goroutine an earlier test left behind
// may exit mid-test (parallel -race runs), which lowers the count without
// saying anything about the device.
func TestDeviceSpawnsNoGoroutines(t *testing.T) {
	sys := config.TestSystem()
	sys.NVM.CapacityBytes = 4 << 20 << 6
	sys.Security.MetadataCache = config.CacheConfig{SizeBytes: 1 << 10, Ways: 2, LatencyCycles: 3}
	base := runtime.NumGoroutine()
	d, err := device.New(device.Options{System: sys, Mode: memctrl.ModeSAC, Key: []byte("k"), Shards: 1024})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines, started with %d", when, n, base)
		}
	}
	check("after New")
	for s := uint64(0); s < 1024; s++ {
		line := fill(s*64, 1)
		if _, err := d.Write(s*64, &line); err != nil {
			t.Fatal(err)
		}
	}
	check("after one write per shard")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")
}

func TestCloseRejectsAndIsIdempotent(t *testing.T) {
	d := newTestDevice(t, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(0); !errors.Is(err, device.ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestShardCountMustDivide(t *testing.T) {
	_, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("k"),
		Shards: 3, // 65536 lines % 3 != 0
	})
	if err == nil {
		t.Fatal("uneven shard split accepted")
	}
}

func TestInfo(t *testing.T) {
	d := newTestDevice(t, nil)
	info := d.Info()
	if info.Shards != 4 || info.CapacityBytes != 4<<20 || info.Mode != memctrl.ModeSRC.String() {
		t.Fatalf("info: %+v", info)
	}
}

func ExampleDevice() {
	d, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("example-key"),
		Shards: 2,
	})
	if err != nil {
		panic(err)
	}
	defer d.Close()
	line := nvm.Line{1, 2, 3}
	if _, err := d.Write(0, &line); err != nil {
		panic(err)
	}
	got, _, err := d.Read(0)
	if err != nil {
		panic(err)
	}
	fmt.Println(got[:3])
	// Output: [1 2 3]
}
