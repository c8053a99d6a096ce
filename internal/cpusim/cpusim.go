// Package cpusim is the trace-driven core and cache-hierarchy model that
// drives the secure memory controller for the performance experiments
// (Fig 10). It runs one trace on one core with the Table-3 L1, L2 and LLC
// — each an internal/cache core carrying plaintext lines — charges fixed
// hit latencies, and forwards LLC misses and dirty LLC evictions to the
// memory controller, which charges NVM, WPQ and security-metadata timing.
//
// The model is deliberately simpler than gem5 (one in-order core, one
// outstanding miss): Soteria's evaluation depends on the *relative* cost
// of metadata cloning, which is governed by eviction rates and write
// traffic, not by out-of-order overlap or core count. DESIGN.md records
// this substitution.
package cpusim

import (
	"encoding/binary"
	"fmt"

	"soteria/internal/cache"
	"soteria/internal/config"
	"soteria/internal/memctrl"
	"soteria/internal/metacache"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/trace"
	"soteria/internal/wpq"
)

// line is the cache payload: actual plaintext contents, so the hierarchy is
// functionally coherent with the encrypted NVM below it.
type line = nvm.Line

// Result summarizes one simulation run.
type Result struct {
	Workload     string
	Mode         string
	Instructions uint64
	MemOps       uint64
	Reads        uint64
	Writes       uint64
	Barriers     uint64
	LLCMisses    uint64
	ExecTime     sim.Time
	Ctrl         memctrl.Stats
	Meta         metacache.Stats
	WPQ          wpq.Stats
	L1, L2, LLC  cache.Stats
}

// CPU is the trace-driven core model.
type CPU struct {
	cfg    config.SystemConfig
	ctrl   *memctrl.Controller
	l1, l2 *cache.Cache[line]
	llc    *cache.Cache[line]
	now    sim.Time

	cycPS float64 // picoseconds per cycle

	instructions uint64
	memOps       uint64
	reads        uint64
	writes       uint64
	barriers     uint64

	// Check enables end-to-end data verification: every read of a line
	// this run has written must return the last written content.
	Check   bool
	written map[uint64]line
}

// New builds a CPU over an existing controller.
func New(cfg config.SystemConfig, ctrl *memctrl.Controller) (*CPU, error) {
	l1, err := cache.New[line](cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New[line](cfg.L2)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New[line](cfg.LLC)
	if err != nil {
		return nil, err
	}
	return &CPU{
		cfg:     cfg,
		ctrl:    ctrl,
		l1:      l1,
		l2:      l2,
		llc:     llc,
		cycPS:   1e12 / cfg.CPU.ClockHz,
		written: make(map[uint64]line),
	}, nil
}

// Now returns the CPU's current simulated time.
func (c *CPU) Now() sim.Time { return c.now }

func (c *CPU) cycles(n float64) sim.Time { return sim.Time(n * c.cycPS) }

// align clamps a trace address into the data region and aligns it to a
// line.
func (c *CPU) align(addr uint64) uint64 {
	return addr % c.cfg.NVM.CapacityBytes &^ (nvm.LineSize - 1)
}

// Run executes up to memOps memory operations from the generator and
// returns the accumulated statistics. Controller statistics are NOT reset,
// so callers can warm up and then ResetStats for measurement.
func (c *CPU) Run(gen trace.Generator, memOps uint64) (Result, error) {
	var rec trace.Record
	for c.memOps < memOps && gen.Next(&rec) {
		if err := c.step(&rec); err != nil {
			return c.result(gen.Name()), err
		}
	}
	return c.result(gen.Name()), nil
}

// step executes one trace record on the core.
func (c *CPU) step(rec *trace.Record) error {
	c.instructions += uint64(rec.Gap)
	c.now += c.cycles(float64(rec.Gap) * c.cfg.CPU.NonMemCPI)
	var err error
	switch rec.Op {
	case trace.OpRead:
		err = c.doRead(c.align(rec.Addr))
	case trace.OpWrite:
		err = c.doWrite(c.align(rec.Addr), false)
	case trace.OpWritePersist:
		err = c.doWrite(c.align(rec.Addr), true)
	case trace.OpBarrier:
		c.barriers++
		c.now = c.ctrl.DrainWPQ(c.now)
		return nil // barriers are not memory operations
	default:
		return fmt.Errorf("cpusim: unknown op %v", rec.Op)
	}
	if err != nil {
		return err
	}
	c.instructions++
	c.memOps++
	return nil
}

func (c *CPU) result(name string) Result {
	return Result{
		Workload:     name,
		Mode:         c.ctrl.Mode().String(),
		Instructions: c.instructions,
		MemOps:       c.memOps,
		Reads:        c.reads,
		Writes:       c.writes,
		Barriers:     c.barriers,
		LLCMisses:    c.llc.Stats().Misses,
		ExecTime:     c.now,
		Ctrl:         c.ctrl.Stats(),
		Meta:         c.ctrl.MetaStats(),
		WPQ:          c.ctrl.WPQStats(),
		L1:           c.l1.Stats(),
		L2:           c.l2.Stats(),
		LLC:          c.llc.Stats(),
	}
}

// doRead services a load through the hierarchy.
func (c *CPU) doRead(addr uint64) error {
	c.reads++
	v, err := c.access(addr)
	if err != nil {
		return err
	}
	if c.Check {
		if want, ok := c.written[addr]; ok && *v != want {
			return fmt.Errorf("cpusim: data corruption at %#x", addr)
		}
	}
	return nil
}

// doWrite services a store; persist additionally writes the line through to
// the controller (clwb) while leaving it clean in the hierarchy.
func (c *CPU) doWrite(addr uint64, persist bool) error {
	c.writes++
	v, err := c.access(addr)
	if err != nil {
		return err
	}
	// Mutate the line deterministically: an embedded (addr, version)
	// pattern that end-to-end checks can validate.
	ver := binary.LittleEndian.Uint64(v[8:16]) + 1
	binary.LittleEndian.PutUint64(v[0:8], addr)
	binary.LittleEndian.PutUint64(v[8:16], ver)
	if c.Check {
		c.written[addr] = *v
	}
	if persist {
		now, err := c.ctrl.WriteBlock(c.now, addr, v)
		if err != nil {
			return err
		}
		c.now = now
		// clwb semantics: every cached copy now matches memory and is
		// clean. Stale dirty copies in L2/LLC must not survive, or
		// their eventual eviction would overwrite the newer persisted
		// data.
		content := *v
		c.l1.CleanLine(addr)
		if lv, ok := c.l2.Peek(addr); ok {
			*lv = content
			c.l2.CleanLine(addr)
		}
		if lv, ok := c.llc.Peek(addr); ok {
			*lv = content
			c.llc.CleanLine(addr)
		}
		return nil
	}
	if !c.l1.MarkDirty(addr) {
		panic("cpusim: written line not resident in L1")
	}
	return nil
}

// access ensures addr is resident in L1 (fetching through L2, LLC and the
// controller as needed) and returns a pointer to its L1 payload.
func (c *CPU) access(addr uint64) (*line, error) {
	if v, ok := c.l1.Lookup(addr); ok {
		c.now += c.cycles(float64(c.cfg.L1.LatencyCycles))
		return v, nil
	}
	c.now += c.cycles(float64(c.cfg.L1.LatencyCycles))
	v, ok := c.l2.Lookup(addr)
	var content line
	if ok {
		c.now += c.cycles(float64(c.cfg.L2.LatencyCycles))
		content = *v
	} else {
		c.now += c.cycles(float64(c.cfg.L2.LatencyCycles))
		lv, ok := c.llc.Lookup(addr)
		if ok {
			c.now += c.cycles(float64(c.cfg.LLC.LatencyCycles))
			content = *lv
		} else {
			c.now += c.cycles(float64(c.cfg.LLC.LatencyCycles))
			data, done, err := c.ctrl.ReadBlock(c.now, addr)
			if err != nil {
				return nil, err
			}
			c.now = done
			content = data
		}
		// Allocate in LLC and L2 on the way up.
		if !ok {
			if err := c.installLLC(addr, content, false); err != nil {
				return nil, err
			}
		}
		c.installL2(addr, content, false)
	}
	// Allocate in L1; the claimed way holds a dirty victim until it is
	// overwritten.
	p, ev, has := c.l1.Claim(addr, false)
	if has && ev.Dirty {
		c.installL2(ev.Addr, *p, true)
	}
	*p = content
	return p, nil
}

func (c *CPU) installL2(addr uint64, content line, dirty bool) {
	if dirty {
		// A dirty line falling out of L1 merges into L2 if resident.
		if v, ok := c.l2.Peek(addr); ok {
			*v = content
			c.l2.MarkDirty(addr)
			return
		}
	}
	p, ev, has := c.l2.Claim(addr, dirty)
	if has && ev.Dirty {
		c.installLLCOrDrop(ev.Addr, *p)
	}
	*p = content
}

func (c *CPU) installLLC(addr uint64, content line, dirty bool) error {
	p, ev, has := c.llc.Claim(addr, dirty)
	victim := *p
	*p = content
	if has && ev.Dirty {
		now, err := c.ctrl.WriteBlock(c.now, ev.Addr, &victim)
		if err != nil {
			return err
		}
		c.now = now
	}
	return nil
}

// installLLCOrDrop handles dirty L2 victims: merge into a resident LLC line
// or allocate one; controller write-back errors on this path are fatal
// (they only occur under injected faults in tests, which use direct
// controller access instead).
func (c *CPU) installLLCOrDrop(addr uint64, content line) {
	if v, ok := c.llc.Peek(addr); ok {
		*v = content
		c.llc.MarkDirty(addr)
		return
	}
	if err := c.installLLC(addr, content, true); err != nil {
		panic(fmt.Sprintf("cpusim: write-back failed: %v", err))
	}
}
