package devnet_test

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
)

// startServer brings up a device and a server on a loopback port and
// returns the dial address.
func startServer(t *testing.T, mutate func(*device.Options)) (*device.Device, string) {
	t.Helper()
	opts := device.Options{
		System:    config.TestSystem(),
		Mode:      memctrl.ModeSRC,
		Key:       []byte("devnet-test-key"),
		Shards:    4,
		Telemetry: true,
	}
	if mutate != nil {
		mutate(&opts)
	}
	dev, err := device.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := devnet.NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
		dev.Close()
	})
	return dev, ln.Addr().String()
}

func testLine(addr uint64, salt byte) nvm.Line {
	var l nvm.Line
	for i := range l {
		l[i] = byte(addr>>uint(8*(i%8))) ^ salt ^ byte(i)
	}
	return l
}

func TestWireRoundTrip(t *testing.T) {
	dev, addr := startServer(t, nil)
	c, err := devnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info != dev.Info() {
		t.Fatalf("info over the wire %+v != local %+v", info, dev.Info())
	}

	for i := uint64(0); i < 32; i++ {
		a := i * nvm.LineSize
		line := testLine(a, 1)
		if _, err := c.Write(a, &line); err != nil {
			t.Fatalf("write %#x: %v", a, err)
		}
	}
	for i := uint64(0); i < 32; i++ {
		a := i * nvm.LineSize
		got, lat, err := c.Read(a)
		if err != nil {
			t.Fatalf("read %#x: %v", a, err)
		}
		if got != testLine(a, 1) {
			t.Fatalf("read %#x returned wrong data", a)
		}
		if lat <= 0 {
			t.Fatalf("read %#x: non-positive latency %v", a, lat)
		}
	}
	if err := c.Drain(0); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The wire snapshot must be byte-identical to the local rendering.
	wire, err := c.SnapshotJSON()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	local, err := dev.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, local) {
		t.Fatal("wire snapshot differs from local snapshot")
	}
}

func TestWireErrorSurface(t *testing.T) {
	dev, addr := startServer(t, nil)
	c, err := devnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	line := testLine(0, 2)
	if _, err := c.Write(0, &line); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// Down: data ops come back as the same sentinel the local API uses.
	if _, _, err := c.Read(0); !errors.Is(err, memctrl.ErrCrashed) {
		t.Fatalf("read while down: %v", err)
	}
	rep, err := dev.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Shards) != 4 || !rep.Clean() {
		t.Fatalf("recovery report: %+v", rep)
	}
	got, _, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != line {
		t.Fatal("committed write lost across wire crash/recover")
	}
	// Unaligned address: a generic server-side error, not a hang.
	if _, _, err := c.Read(7); err == nil {
		t.Fatal("unaligned read accepted over the wire")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t, nil)
	const clients = 4
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := devnet.Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				a := uint64(k*64+i) * nvm.LineSize
				line := testLine(a, byte(k))
				if _, err := c.Write(a, &line); err != nil {
					t.Errorf("client %d write: %v", k, err)
					return
				}
				got, _, err := c.Read(a)
				if err != nil {
					t.Errorf("client %d read: %v", k, err)
					return
				}
				if got != line {
					t.Errorf("client %d: wrong data at %#x", k, a)
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

func TestGracefulShutdownAnswersInFlight(t *testing.T) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("devnet-test-key"),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	srv := devnet.NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()

	c, err := devnet.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	line := testLine(0, 3)
	if _, err := c.Write(0, &line); err != nil {
		t.Fatal(err)
	}

	srv.Shutdown()
	<-done
	// The drained connection is closed; the next request fails at the
	// transport, not by hanging.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
	// The device itself is still alive and served the committed write.
	got, _, err := dev.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != line {
		t.Fatal("device lost data across server shutdown")
	}
}
