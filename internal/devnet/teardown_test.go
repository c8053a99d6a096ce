package devnet_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/tenant"
)

// TestTeardownLeaksNoGoroutines: a server with a stop-and-wait client, a
// flat pipe and a tenant-bound pipe, each of which runs a few ops and is
// then closed, leaves no goroutine behind once the server has shut down.
// The check is one-sided, like TestDeviceSpawnsNoGoroutines: a goroutine
// an earlier test left behind may exit meanwhile.
func TestTeardownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	newDev := func(key string) *device.Device {
		dev, err := device.New(device.Options{System: config.TestSystem(), Mode: memctrl.ModeSRC, Key: []byte(key), Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	flat, under := newDev("teardown-flat"), newDev("teardown-tenant")
	svc, err := tenant.New(under, tenant.Options{MasterKey: []byte("teardown-master")})
	if err != nil {
		t.Fatal(err)
	}
	token, err := svc.Provision(1, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := devnet.NewServerWith(flat, devnet.ServerOptions{Tenants: svc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	c, err := devnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	line := testLine(0, 1)
	if _, err := c.Write(0, &line); err != nil {
		t.Fatal(err)
	}
	if got, _, err := c.Read(0); err != nil || got != line {
		t.Fatalf("client read back %x, %v", got[:8], err)
	}

	h := func(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error) {
		if err != nil {
			t.Errorf("pipe op %d: %v", tag, err)
		}
	}
	pipes := make([]*devnet.Pipe, 2)
	for i := range pipes {
		if pipes[i], err = devnet.DialPipe(addr, h, devnet.PipeOptions{Window: 2, MaxBatch: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pipes[1].AttachTenant(1, token); err != nil {
		t.Fatal(err)
	}
	for _, p := range pipes {
		for i := uint64(0); i < 8; i++ {
			line := testLine(i*nvm.LineSize, 2)
			if err := p.Submit(i, device.BatchWrite, i*nvm.LineSize, &line); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	c.Close()
	for _, p := range pipes {
		p.Close()
	}
	srv.Shutdown()
	flat.Close()
	under.Close()

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after teardown, started with %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
