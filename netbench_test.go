// Network front-end benchmarks: the same write-heavy mix as
// BenchmarkDeviceThroughput pushed through the TCP device service, first
// with the stop-and-wait Client and then with the windowed batching Pipe,
// flat and — one tenant-attached connection per tenant against a
// tenant-only server — through the tenant layer. The pipe/stopwait ratio
// is the headline number of the wire-speed front end (BENCH_10.json), the
// tenant-pipe/flat-pipe ratio what the tenant layer costs a pipelined op
// (BENCH_16.json); the CI bench gate tracks the absolute ns/op.
package soteria

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/tenant"
)

// netBenchLines is the working set of one connection: the lines it owns
// on a flat server, its tenant's extent on a tenant-only one.
const netBenchLines = 1024

// startNetBenchServer boots a fresh sharded device behind a TCP server on a
// loopback port, so every sub-benchmark measures an independent instance.
// With tenants > 0 the server is tenant-only over that many provisioned
// tenants, and tokens[c] attaches connection c as tenant c+1.
func startNetBenchServer(b *testing.B, tenants int) (addr string, tokens []uint64, stop func()) {
	b.Helper()
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("bench-net-key"),
		Shards: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := devnet.NewServer(dev)
	if tenants > 0 {
		// FairBurst = tenants makes one tenant's fair share a whole quota
		// window, so the gate never engages and the rows time the data
		// path. At the default burst of 2, four pipes with 8 x 64 ops in
		// flight each sit exactly on their share, and the quota window —
		// which only admitted ops advance — stops rolling for whichever
		// tenant is still sending after the others have finished.
		svc, err := tenant.New(dev, tenant.Options{
			MasterKey: []byte("bench-net-tenant-master"),
			FairBurst: tenants,
		})
		if err != nil {
			b.Fatal(err)
		}
		for id := 1; id <= tenants; id++ {
			token, err := svc.Provision(uint32(id), netBenchLines, 0)
			if err != nil {
				b.Fatal(err)
			}
			tokens = append(tokens, token)
		}
		srv = devnet.NewServerWith(nil, devnet.ServerOptions{Tenants: svc})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dev.Close()
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	return ln.Addr().String(), tokens, func() {
		srv.Shutdown()
		<-done
		dev.Close()
	}
}

// netBenchAddr maps op i of connection c to a line-interleaved address
// owned by that connection, mirroring benchDevice's layout so the device
// shards see the same access pattern with and without the network. A
// tenant-attached connection walks its own extent instead: tenant-local
// addresses, the same lines on every connection.
func netBenchAddr(c, i, conns int, tenant bool) uint64 {
	line := uint64(i) % netBenchLines
	if !tenant {
		line = line*uint64(conns) + uint64(c)
	}
	return line * nvm.LineSize
}

// benchNetStopAndWait drives conns closed-loop clients, one in-flight
// request each — the pre-batching baseline the pipe is measured against.
// With tenants set, connection c is attached as tenant c+1.
func benchNetStopAndWait(b *testing.B, conns int, tenants bool) {
	addr, tokens, stop := startNetBenchServer(b, tenantCount(conns, tenants))
	defer stop()
	clients := make([]*devnet.Client, conns)
	for c := range clients {
		cl, err := devnet.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		if tenants {
			if err := cl.AttachTenant(uint32(c+1), tokens[c]); err != nil {
				b.Fatal(err)
			}
		}
		clients[c] = cl
	}
	perConn := b.N/conns + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := clients[c]
			var line nvm.Line
			for i := 0; i < perConn; i++ {
				a := netBenchAddr(c, i, conns, tenants)
				if i%4 == 3 {
					if _, _, err := cl.Read(a); err != nil {
						b.Error(err)
						return
					}
				} else if _, err := cl.Write(a, &line); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// benchNetPipelined drives conns windowed batching pipes through the same
// mix. Acks are consumed by the handler as Submit blocks on a full window;
// Flush drains the tail so every op is acknowledged inside the timed
// region. With tenants set, pipe c is attached as tenant c+1.
func benchNetPipelined(b *testing.B, conns, window, batch int, tenants bool) {
	addr, tokens, stop := startNetBenchServer(b, tenantCount(conns, tenants))
	defer stop()
	perConn := b.N/conns + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var opErr error
			h := func(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error) {
				if err != nil && opErr == nil {
					opErr = err
				}
			}
			p, err := devnet.DialPipe(addr, h, devnet.PipeOptions{
				Window:   window,
				MaxBatch: batch,
			})
			if err != nil {
				b.Error(err)
				return
			}
			defer p.Close()
			if tenants {
				if err := p.AttachTenant(uint32(c+1), tokens[c]); err != nil {
					b.Error(err)
					return
				}
			}
			var line nvm.Line
			for i := 0; i < perConn; i++ {
				a := netBenchAddr(c, i, conns, tenants)
				if i%4 == 3 {
					err = p.Submit(0, device.BatchRead, a, nil)
				} else {
					err = p.Submit(0, device.BatchWrite, a, &line)
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
			if err := p.Flush(); err != nil {
				b.Error(err)
				return
			}
			if opErr != nil {
				b.Error(opErr)
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkNetThroughput is the wire-speed front-end grid: stop-and-wait
// versus pipelined at 1 and 4 connections, then the same two clients
// tenant-attached (one connection per tenant) at 1 and 4 tenants. The
// flat pipe also runs at the tenant rows' window 8 / batch 64, so the
// tenant : flat ratio compares like with like. Sub-names use key=value
// parts only — a trailing -N would be parsed as a GOMAXPROCS suffix by
// the benchmark tooling.
func BenchmarkNetThroughput(b *testing.B) {
	for _, conns := range []int{1, 4} {
		b.Run(fmt.Sprintf("mode=stopwait/conns=%d", conns), func(b *testing.B) {
			benchNetStopAndWait(b, conns, false)
		})
	}
	for _, conns := range []int{1, 4} {
		b.Run(fmt.Sprintf("mode=pipe/conns=%d/pipeline=4/batch=32", conns), func(b *testing.B) {
			benchNetPipelined(b, conns, 4, 32, false)
		})
	}
	for _, conns := range []int{1, 4} {
		b.Run(fmt.Sprintf("mode=pipe/conns=%d/pipeline=8/batch=64", conns), func(b *testing.B) {
			benchNetPipelined(b, conns, 8, 64, false)
		})
	}
	for _, tenants := range []int{1, 4} {
		b.Run(fmt.Sprintf("mode=tenant-stopwait/tenants=%d", tenants), func(b *testing.B) {
			benchNetStopAndWait(b, tenants, true)
		})
	}
	for _, tenants := range []int{1, 4} {
		b.Run(fmt.Sprintf("mode=tenant-pipe/tenants=%d/pipeline=8/batch=64", tenants), func(b *testing.B) {
			benchNetPipelined(b, tenants, 8, 64, true)
		})
	}
}

// tenantCount is how many tenants a row's server provisions: one per
// connection on a tenant row, none (a flat server) otherwise.
func tenantCount(conns int, tenants bool) int {
	if tenants {
		return conns
	}
	return 0
}
