package loadgen

import (
	"errors"
	"fmt"

	"soteria/internal/device"
	"soteria/internal/nvm"
	"soteria/internal/oracle"
	"soteria/internal/sim"
	"soteria/internal/trace"
)

// stream is one deterministic request stream — a device shard's or a
// tenant's — plus everything it accumulates. Exactly one driver touches
// it, and every op it issues goes through its target.
type stream struct {
	name      string // "shard 3", "tenant 2": error context
	key       uint64 // payload stream: shard+1, or the tenant ID
	gen       trace.Generator
	remaining int
	target    PipeConn
	// pending holds an op a throttle bounced, replayed on the next visit
	// (the generator has no pushback).
	pending *flight
	// Address map: local line (addr/64) mod lines lands on global line
	// local·stride + offset. A tenant stream has stride 1 and offset 0.
	lines, stride, offset uint64
	writeIdx              int
	// book is the content oracle: it keys each local line under the
	// stream's key with the index of the last write to it that completed,
	// so every later read can be verified.
	book oracle.Book

	reads, writes                 classHist
	barriers, throttled, verified uint64
	simBusy                       uint64 // ps, sum of op latencies
}

func newStream(name string, key uint64, seed int64, gen trace.Generator, budget int, lines, stride, offset uint64) *stream {
	return &stream{name: name, key: key, gen: gen, remaining: budget,
		lines: lines, stride: stride, offset: offset, book: oracle.Book{Seed: seed}}
}

// addr maps a stream-local line to the address its target takes.
func (s *stream) addr(line uint64) uint64 {
	return (line*s.stride + s.offset) * nvm.LineSize
}

// flight is one submitted op awaiting its completion.
type flight struct {
	s     *stream
	op    uint8 // device.Batch*
	line  uint64
	write int // the write's content index
}

// driver runs streams round-robin through their targets and owns the one
// completion path every target reports into. Its tags are its own, so a
// target's handler must be the submitting driver's complete.
type driver struct {
	tag        uint64 // last tag issued; tags start at 1
	submitting uint64 // tag whose Submit is running, 0 outside Submit
	flights    map[uint64]flight
	err        error // first fatal op error
}

func newDriver() *driver { return &driver{flights: map[uint64]flight{}} }

// run visits the owned live streams round-robin, one op per visit, until
// every budget is spent, then flushes their targets. rot, when non-nil,
// is armed by the completed-op count and steps between rounds while it
// runs.
func (d *driver) run(owned []*stream, rot *rotation) error {
	var completed uint64
	for {
		live, progressed := 0, false
		for _, s := range owned {
			if s.remaining <= 0 {
				continue
			}
			live++
			ok, err := d.step(s)
			if err != nil {
				return err
			}
			if ok {
				progressed = true
				completed++
			}
			if rot != nil {
				if err := rot.arm(completed); err != nil {
					return err
				}
			}
		}
		rotating := rot != nil && rot.running
		if rotating {
			moved, err := rot.step(completed)
			if err != nil {
				return err
			}
			progressed = progressed || moved
		}
		if live == 0 && !rotating {
			break
		}
		if live > 0 && !progressed {
			// Every live stream was throttled and nothing advanced the
			// service's op clock, so no retry can ever succeed.
			return fmt.Errorf("loadgen: fair-share livelock: %d streams throttled with no admitted ops to roll the quota window", live)
		}
	}
	for _, s := range owned {
		if err := s.target.Flush(); err != nil && d.err == nil {
			return err
		}
	}
	return d.err
}

// step submits the stream's next op — a throttled one first, else the
// generator's next record — and reports whether it went through rather
// than bouncing back to pending.
func (d *driver) step(s *stream) (bool, error) {
	var f flight
	if s.pending != nil {
		f, s.pending = *s.pending, nil
	} else {
		var rec trace.Record
		if !s.gen.Next(&rec) {
			s.remaining = 0
			return true, nil
		}
		f = flight{s: s, op: device.BatchDrain}
		switch rec.Op {
		case trace.OpRead:
			f.op = device.BatchRead
		case trace.OpWrite, trace.OpWritePersist:
			f.op, f.write = device.BatchWrite, s.writeIdx
			s.writeIdx++
		}
		if f.op != device.BatchDrain {
			f.line = (rec.Addr / nvm.LineSize) % s.lines
		}
	}
	var line *nvm.Line
	if f.op == device.BatchWrite {
		line = new(nvm.Line)
		oracle.Fill(line, s.book.Seed, s.key, f.write)
	}
	d.tag++
	d.flights[d.tag] = f
	d.submitting = d.tag
	err := s.target.Submit(d.tag, f.op, s.addr(f.line), line)
	d.submitting = 0
	if err != nil {
		return false, fmt.Errorf("loadgen: %s submit: %w", s.name, err)
	}
	if d.err != nil {
		return false, d.err
	}
	if s.pending != nil {
		return false, nil
	}
	s.remaining--
	return true, nil
}

// complete is the one completion path, a PipeHandler: it charges the
// op's latency to its stream and checks reads against the content
// oracle. A BusyError (fair-share throttle or a full shard queue) that a
// blocking target returns for the op being submitted puts it back as
// pending for the stream's next visit. Any other error is fatal to the
// run — including a BusyError from a pipe, which arrives only after
// link.requeue has spent the op's retry budget.
//
// The oracle compares a read with the last write to its line that
// COMPLETED before it. That is exact because each line belongs to one
// stream, hence one connection, and a connection's ops complete in the
// order the server executed them: a blocking op completes in place; a
// pipe delivers batches in sequence order and the server runs a
// connection's frames one at a time, in order; a go-back-N retransmit of
// an executed batch replays that execution's cached results; and an op
// re-sent by link.requeue completes when it re-executes, after everything
// executed before it.
func (d *driver) complete(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error) {
	f := d.flights[tag]
	delete(d.flights, tag)
	s := f.s
	var be *device.BusyError
	switch {
	case tag == d.submitting && errors.As(err, &be):
		s.throttled++
		s.pending = &f
		return
	case err != nil:
		d.fail(fmt.Errorf("loadgen: %s %s %#x: %w", s.name, opNames[op], s.addr(f.line), err))
		return
	}
	switch op {
	case device.BatchRead:
		switch k := (oracle.Key{Stream: s.key, Addr: f.line}); s.book.Check(k, data) {
		case oracle.Stale:
			d.fail(fmt.Errorf("loadgen: %s line %#x: read returned stale or foreign content (want write %d)", s.name, s.addr(f.line), s.book.Acked[k]))
			return
		case oracle.OK:
			s.verified++
		}
		s.reads.observe(lat)
		s.simBusy += uint64(lat)
	case device.BatchWrite:
		s.book.Ack(oracle.Key{Stream: s.key, Addr: f.line}, f.write)
		s.writes.observe(lat)
		s.simBusy += uint64(lat)
	default:
		s.barriers++
	}
}

func (d *driver) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

var opNames = [...]string{device.BatchRead: "read", device.BatchWrite: "write", device.BatchDrain: "drain"}

// inline adapts a blocking connection to PipeConn: Submit runs the op and
// reports it to the handler before returning, so nothing is ever left to
// flush.
type inline struct {
	c interface {
		Read(addr uint64) (nvm.Line, sim.Time, error)
		Write(addr uint64, data *nvm.Line) (sim.Time, error)
		Close() error
	}
	// drain runs a barrier; nil acknowledges it without a round trip
	// (a tenant session's acknowledged writes are already durable).
	drain func(addr uint64) error
	h     PipeHandler
}

func (t *inline) Submit(tag uint64, op uint8, addr uint64, line *nvm.Line) error {
	switch op {
	case device.BatchRead:
		data, lat, err := t.c.Read(addr)
		t.h(tag, op, &data, lat, err)
	case device.BatchWrite:
		lat, err := t.c.Write(addr, line)
		t.h(tag, op, nil, lat, err)
	default:
		var err error
		if t.drain != nil {
			err = t.drain(addr)
		}
		t.h(tag, op, nil, 0, err)
	}
	return nil
}

func (t *inline) Flush() error { return nil }
func (t *inline) Close() error { return t.c.Close() }
