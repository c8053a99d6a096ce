package main

import (
	"fmt"
	"net"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// doneFunc receives the outcome of one submitted op on the generator's own
// goroutine: data is the line a read returned (nil for writes), lat the
// simulated device latency.
type doneFunc func(tag uint64, data *nvm.Line, lat sim.Time, err error)

// conn is one generator's handle on a layer. submit issues one op; its
// outcome reaches the generator's doneFunc exactly once, before submit
// returns on the synchronous kinds, during a later submit or flush on the
// windowed ones. flush returns once every submitted op is done.
type conn interface {
	submit(tag uint64, write bool, addr uint64, line *nvm.Line) error
	flush() error
}

// syncConn is the conn of every call-and-return layer: one op in flight,
// done before submit returns.
type syncConn struct {
	write func(addr uint64, line *nvm.Line) (sim.Time, error)
	read  func(addr uint64) (nvm.Line, sim.Time, error)
	done  doneFunc
	rbuf  nvm.Line // read result handed to done; conn-owned so it does not escape per op
}

func (sc *syncConn) submit(tag uint64, write bool, addr uint64, line *nvm.Line) error {
	if write {
		lat, err := sc.write(addr, line)
		sc.done(tag, nil, lat, err)
		return nil
	}
	var lat sim.Time
	var err error
	sc.rbuf, lat, err = sc.read(addr)
	sc.done(tag, &sc.rbuf, lat, err)
	return nil
}

func (sc *syncConn) flush() error { return nil }

// stack is a built instance of one kind, with the control handles the
// benchmark needs outside the timed segments. Everything here goes through
// the layers' public functions and getters.
type stack struct {
	conns []conn
	// stats sums the controllers' books under the stack.
	stats func() memctrl.Stats
	// counts merges every telemetry registry the stack exposes (gauges add
	// across shards, as in Device.Snapshot). Controller-level names are
	// present only when the stack was built traced.
	counts func() *telemetry.Snapshot
	// flush writes back dirty metadata so verify sees a consistent image.
	flush   func() error
	verify  func() error
	crash   func() error
	recover func() (tracked, recovered int, err error)
	close   func()
}

var benchKey = []byte("soteria-bench-key")

func systemFor(w *workload) config.SystemConfig {
	cfg := config.TestSystem()
	if w.capacity != 0 {
		cfg.NVM.CapacityBytes = w.capacity
	}
	return cfg
}

func deviceOptions(w *workload, traced bool) device.Options {
	return device.Options{
		System:    systemFor(w),
		Mode:      memctrl.ModeSRC,
		Key:       benchKey,
		Shards:    w.shards,
		Telemetry: traced,
	}
}

func addStats(a *memctrl.Stats, b memctrl.Stats) {
	a.MemRequests += b.MemRequests
	a.DataReads += b.DataReads
	a.DataWrites += b.DataWrites
	a.ColdReads += b.ColdReads
	for i := range a.NVMWrites {
		a.NVMWrites[i] += b.NVMWrites[i]
	}
	a.NVMReads += b.NVMReads
	a.WPQForwards += b.WPQForwards
	a.PageReencrypt += b.PageReencrypt
	a.ForcedWB += b.ForcedWB
	a.RecoveredOK += b.RecoveredOK
	a.RecoveryLost += b.RecoveryLost
}

// buildStack constructs kind k shaped like workload w, with one conn per
// generator wired to done[g].
func buildStack(w *workload, k kind, traced bool, done []doneFunc) (*stack, error) {
	switch k {
	case kindCtrl:
		return buildCtrl(w, traced, done)
	case kindBatch, kindPipe:
		return buildDevice(w, k, traced, done)
	}
	return nil, fmt.Errorf("unknown kind %d", k)
}

// ---- bare controllers ----

// ctrlShard is one controller and its closed-loop simulated clock: each op
// is issued at the completion time of the previous one.
type ctrlShard struct {
	c   *memctrl.Controller
	now sim.Time
	reg *telemetry.Registry
}

// ctrlOps addresses the shards the way the device does: global line g lives
// on shard g mod n at local line g div n.
func ctrlOps(shards []*ctrlShard) (func(uint64, *nvm.Line) (sim.Time, error), func(uint64) (nvm.Line, sim.Time, error)) {
	n := uint64(len(shards))
	locate := func(addr uint64) (*ctrlShard, uint64) {
		gl := addr / nvm.LineSize
		return shards[gl%n], gl / n * nvm.LineSize
	}
	write := func(addr uint64, line *nvm.Line) (sim.Time, error) {
		s, local := locate(addr)
		start := s.now
		var err error
		s.now, err = s.c.WriteBlock(start, local, line)
		return s.now - start, err
	}
	read := func(addr uint64) (nvm.Line, sim.Time, error) {
		s, local := locate(addr)
		start := s.now
		data, t, err := s.c.ReadBlock(start, local)
		s.now = t
		return data, t - start, err
	}
	return write, read
}

func buildCtrl(w *workload, traced bool, done []doneFunc) (*stack, error) {
	cfg := systemFor(w)
	cfg.NVM.CapacityBytes /= uint64(w.shards)
	shards := make([]*ctrlShard, w.shards)
	for i := range shards {
		c, err := memctrl.New(cfg, memctrl.ModeSRC, benchKey, memctrl.Options{})
		if err != nil {
			return nil, err
		}
		shards[i] = &ctrlShard{c: c}
		if traced {
			shards[i].reg = telemetry.NewRegistry()
			c.AttachTelemetry(shards[i].reg)
		}
	}
	st := &stack{
		stats: func() memctrl.Stats {
			var total memctrl.Stats
			for _, s := range shards {
				addStats(&total, s.c.Stats())
			}
			return total
		},
		counts: func() *telemetry.Snapshot {
			var all telemetry.Snapshot
			for _, s := range shards {
				all.Merge(s.reg.Snapshot())
			}
			return &all
		},
		flush: func() error {
			for _, s := range shards {
				s.now = s.c.FlushAll(s.now)
			}
			return nil
		},
		verify: func() error {
			for i, s := range shards {
				if err := s.c.VerifyAll(); err != nil {
					return fmt.Errorf("shard %d: %w", i, err)
				}
			}
			return nil
		},
		crash: func() error {
			for _, s := range shards {
				if err := s.c.Crash(); err != nil {
					return err
				}
			}
			return nil
		},
		recover: func() (int, int, error) {
			var tracked, recovered int
			for _, s := range shards {
				rep, err := s.c.Recover()
				if err != nil {
					return tracked, recovered, err
				}
				tracked += rep.TrackedEntries
				recovered += rep.RecoveredBlocks
			}
			return tracked, recovered, nil
		},
		close: func() {},
	}
	write, read := ctrlOps(shards)
	for _, d := range done {
		st.conns = append(st.conns, &syncConn{write: write, read: read, done: d})
	}
	return st, nil
}

// ---- device.Device: batched, and behind a loopback server ----

// batchConn gathers batchOps ops and executes them as one ExecBatch, the
// call the server makes for one wire batch.
type batchConn struct {
	dev  *device.Device
	done doneFunc
	ops  []device.BatchOp
	res  []device.BatchResult
	tags []uint64
}

func (bc *batchConn) submit(tag uint64, write bool, addr uint64, line *nvm.Line) error {
	op := device.BatchOp{Op: device.BatchRead, Addr: addr}
	if write {
		op.Op, op.Line = device.BatchWrite, *line
	}
	bc.ops = append(bc.ops, op)
	bc.tags = append(bc.tags, tag)
	if len(bc.ops) == batchOps {
		return bc.flush()
	}
	return nil
}

func (bc *batchConn) flush() error {
	if len(bc.ops) == 0 {
		return nil
	}
	res := bc.res[:len(bc.ops)]
	err := bc.dev.ExecBatch(bc.ops, res)
	for i := range res {
		var data *nvm.Line
		if bc.ops[i].Op == device.BatchRead {
			data = &res[i].Data
		}
		bc.done(bc.tags[i], data, res[i].Latency, res[i].Err)
	}
	bc.ops, bc.tags = bc.ops[:0], bc.tags[:0]
	return err
}

type pipeConn struct{ p *devnet.Pipe }

func (pc pipeConn) submit(tag uint64, write bool, addr uint64, line *nvm.Line) error {
	if write {
		return pc.p.Submit(tag, device.BatchWrite, addr, line)
	}
	return pc.p.Submit(tag, device.BatchRead, addr, nil)
}

func (pc pipeConn) flush() error { return pc.p.Flush() }

// netCounts starts a stack's counts with the wire plane's: the client
// registry and the server's dedup-window hits.
func netCounts(sessions *devnet.SessionTable, clientReg *telemetry.Registry) *telemetry.Snapshot {
	all := &telemetry.Snapshot{Counters: map[string]uint64{"devnet_dedup_hits": sessions.Hits()}}
	all.Merge(clientReg.Snapshot())
	return all
}

// serve runs srv on a fresh loopback port and returns its address and a
// function that shuts it down and waits for Serve to return.
func serve(srv *devnet.Server) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns the listener's close error on Shutdown
	}()
	return ln.Addr().String(), func() {
		srv.Shutdown()
		<-served
	}, nil
}

func buildDevice(w *workload, k kind, traced bool, done []doneFunc) (*stack, error) {
	dev, err := device.New(deviceOptions(w, traced))
	if err != nil {
		return nil, err
	}
	clientReg := telemetry.NewRegistry()
	sessions := devnet.NewSessionTable(0, 0)
	st := &stack{
		stats: dev.Stats,
		counts: func() *telemetry.Snapshot {
			all := netCounts(sessions, clientReg)
			all.Merge(dev.Snapshot())
			return all
		},
		flush:  dev.Flush,
		verify: dev.VerifyAll,
		crash:  dev.Crash,
		recover: func() (int, int, error) {
			rep, err := dev.Recover()
			if err != nil {
				return 0, 0, err
			}
			return rep.TrackedEntries(), rep.RecoveredBlocks(), nil
		},
		close: func() { _ = dev.Close() },
	}
	switch k {
	case kindBatch:
		for _, d := range done {
			st.conns = append(st.conns, &batchConn{dev: dev, done: d,
				res: make([]device.BatchResult, batchOps)})
		}
	case kindPipe:
		addr, stop, err := serve(devnet.NewServerWith(dev, devnet.ServerOptions{Sessions: sessions}))
		if err != nil {
			st.close()
			return nil, err
		}
		var pipes []*devnet.Pipe
		st.close = func() {
			for _, p := range pipes {
				_ = p.Close()
			}
			stop()
			_ = dev.Close()
		}
		for _, d := range done {
			d := d
			h := func(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error) { d(tag, data, lat, err) }
			p, err := devnet.DialPipe(addr, h, devnet.PipeOptions{
				Options:  devnet.Options{Telemetry: clientReg},
				Window:   pipeWindow,
				MaxBatch: batchOps,
			})
			if err != nil {
				st.close()
				return nil, err
			}
			pipes = append(pipes, p)
			st.conns = append(st.conns, pipeConn{p})
		}
	}
	return st, nil
}
