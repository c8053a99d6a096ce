package loadgen_test

import (
	"strings"
	"testing"

	"soteria/internal/device"
	"soteria/internal/loadgen"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// corrupter plants one fault in the first read that can show it: a
// flipped byte in a line the run wrote through the same connection, or
// with stale set the value a line held before its last write — a
// silently corrupted or lost line the content oracle must catch.
// armed=false leaves every read intact.
type corrupter struct {
	armed, stale bool
	fired        bool
	last, prev   map[uint64]nvm.Line // by address: the last write, the one before
}

func (c *corrupter) wrote(addr uint64, l *nvm.Line) {
	if c.last == nil {
		c.last, c.prev = map[uint64]nvm.Line{}, map[uint64]nvm.Line{}
	}
	if old, ok := c.last[addr]; ok {
		c.prev[addr] = old
	}
	c.last[addr] = *l
}

func (c *corrupter) read(addr uint64, l *nvm.Line) {
	if !c.armed || c.fired {
		return
	}
	_, written := c.last[addr]
	prev, rewritten := c.prev[addr]
	switch {
	case c.stale && rewritten:
		c.fired = true
		*l = prev
	case !c.stale && written:
		c.fired = true
		l[17] ^= 0x40
	}
}

// corruptConn is an in-process flat connection that routes reads and
// writes through a corrupter.
type corruptConn struct {
	loadgen.Conn
	c *corrupter
}

func (k corruptConn) Read(addr uint64) (nvm.Line, sim.Time, error) {
	l, lat, err := k.Conn.Read(addr)
	k.c.read(addr, &l)
	return l, lat, err
}

func (k corruptConn) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	k.c.wrote(addr, data)
	return k.Conn.Write(addr, data)
}

// corruptTenantConn is the tenant-session twin of corruptConn.
type corruptTenantConn struct {
	loadgen.TenantConn
	c *corrupter
}

func (k corruptTenantConn) Read(addr uint64) (nvm.Line, sim.Time, error) {
	l, lat, err := k.TenantConn.Read(addr)
	k.c.read(addr, &l)
	return l, lat, err
}

func (k corruptTenantConn) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	k.c.wrote(addr, data)
	return k.TenantConn.Write(addr, data)
}

// localPipe is an in-process pipelined target: Submit queues ops and
// runs them, in order, a batch at a time, so completions reach the
// handler during later Submits or the final Flush — the asynchronous
// completion path a devnet.Pipe takes.
type localPipe struct {
	conn  loadgen.Conn
	h     loadgen.PipeHandler
	batch int
	queue []queuedOp
}

type queuedOp struct {
	tag  uint64
	op   uint8
	addr uint64
	line nvm.Line
}

func (p *localPipe) Submit(tag uint64, op uint8, addr uint64, line *nvm.Line) error {
	q := queuedOp{tag: tag, op: op, addr: addr}
	if line != nil {
		q.line = *line
	}
	p.queue = append(p.queue, q)
	if len(p.queue) >= p.batch {
		return p.Flush()
	}
	return nil
}

func (p *localPipe) Flush() error {
	for _, q := range p.queue {
		switch q.op {
		case device.BatchRead:
			l, lat, err := p.conn.Read(q.addr)
			p.h(q.tag, q.op, &l, lat, err)
		case device.BatchWrite:
			lat, err := p.conn.Write(q.addr, &q.line)
			p.h(q.tag, q.op, nil, lat, err)
		default:
			p.h(q.tag, q.op, nil, 0, p.conn.Drain(q.addr))
		}
	}
	p.queue = p.queue[:0]
	return nil
}

func (p *localPipe) Close() error { return nil }

// TestOracleCatchesCorruptedRead plants one corrupted byte, or one stale
// line, in one read and requires every front end — flat stop-and-wait,
// flat pipelined and multi-tenant — to fail the run on it. The same run
// with the corrupter disarmed must pass and verify reads, so the failure
// is the oracle's.
func TestOracleCatchesCorruptedRead(t *testing.T) {
	fronts := map[string]func(c *corrupter) (verified uint64, err error){
		"stop-and-wait": func(c *corrupter) (uint64, error) {
			dev := newDevice(t, 2)
			rep, _, err := loadgen.Run(loadgen.Params{
				Dial:     func() (loadgen.Conn, error) { return corruptConn{loadgen.NewLocalConn(dev), c}, nil },
				Ops:      600,
				Seed:     42,
				Workload: "hashmap",
			})
			if err != nil {
				return 0, err
			}
			return rep.Verified, nil
		},
		"pipelined": func(c *corrupter) (uint64, error) {
			dev := newDevice(t, 2)
			conn := corruptConn{loadgen.NewLocalConn(dev), c}
			rep, _, err := loadgen.Run(loadgen.Params{
				Dial: func() (loadgen.Conn, error) { return conn, nil },
				DialPipe: func(h loadgen.PipeHandler) (loadgen.PipeConn, error) {
					return &localPipe{conn: conn, h: h, batch: 8}, nil
				},
				Ops:      600,
				Seed:     42,
				Workload: "hashmap",
			})
			if err != nil {
				return 0, err
			}
			return rep.Verified, nil
		},
		"tenant": func(c *corrupter) (uint64, error) {
			svc, specs := newTenantService(t, 1, 64)
			rep, err := loadgen.RunTenants(loadgen.TenantParams{
				Dial: func() (loadgen.TenantConn, error) {
					return corruptTenantConn{loadgen.NewLocalTenantConn(svc), c}, nil
				},
				Tenants:  specs,
				Ops:      600,
				Seed:     42,
				Workload: "hashmap",
			})
			if err != nil {
				return 0, err
			}
			return rep.Verified, nil
		},
	}
	for name, run := range fronts {
		t.Run(name, func(t *testing.T) {
			verified, err := run(&corrupter{})
			if err != nil || verified == 0 {
				t.Fatalf("clean run: %d reads verified, err %v", verified, err)
			}
			for _, stale := range []bool{false, true} {
				c := &corrupter{armed: true, stale: stale}
				_, err = run(c)
				if !c.fired {
					t.Fatalf("stale=%t: the run never re-read a line it wrote; nothing was planted", stale)
				}
				if err == nil || !strings.Contains(err.Error(), "stale or foreign content") {
					t.Fatalf("stale=%t: planted read was not caught: err %v", stale, err)
				}
			}
		})
	}
}
