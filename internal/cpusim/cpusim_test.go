package cpusim

import (
	"testing"

	"soteria/internal/config"
	"soteria/internal/memctrl"
	"soteria/internal/trace"
	"soteria/internal/workload"
)

func newCPU(t testing.TB, mode memctrl.Mode) *CPU {
	t.Helper()
	cfg := config.TestSystem()
	ctrl, err := memctrl.New(cfg, mode, []byte("k"), memctrl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(cfg, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

func TestRunUBenchAllModes(t *testing.T) {
	for _, mode := range []memctrl.Mode{memctrl.ModeNonSecure, memctrl.ModeBaseline, memctrl.ModeSRC, memctrl.ModeSAC} {
		t.Run(mode.String(), func(t *testing.T) {
			cpu := newCPU(t, mode)
			gen := workload.UBench(64).New(config.TestSystem().NVM.CapacityBytes, 1)
			res, err := cpu.Run(gen, 5000)
			if err != nil {
				t.Fatal(err)
			}
			if res.MemOps != 5000 {
				t.Fatalf("memOps = %d", res.MemOps)
			}
			if res.ExecTime <= 0 {
				t.Fatal("no time elapsed")
			}
			if res.Reads == 0 || res.Writes == 0 {
				t.Fatalf("uBENCH must mix reads and writes: %d/%d", res.Reads, res.Writes)
			}
		})
	}
}

func TestEndToEndDataIntegrityThroughHierarchy(t *testing.T) {
	cpu := newCPU(t, memctrl.ModeSRC)
	cpu.Check = true
	gen := workload.ByNameMust("hashmap").New(1<<20, 42)
	if _, err := cpu.Run(gen, 20000); err != nil {
		t.Fatalf("data corruption through hierarchy: %v", err)
	}
}

func TestSecureSlowerThanNonSecureAndSoteriaNearBaseline(t *testing.T) {
	run := func(mode memctrl.Mode) Result {
		cpu := newCPU(t, mode)
		gen := workload.UBench(128).New(config.TestSystem().NVM.CapacityBytes, 7)
		res, err := cpu.Run(gen, 20000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ns := run(memctrl.ModeNonSecure)
	base := run(memctrl.ModeBaseline)
	src := run(memctrl.ModeSRC)
	if base.ExecTime <= ns.ExecTime {
		t.Fatalf("secure baseline (%v) not slower than non-secure (%v)", base.ExecTime, ns.ExecTime)
	}
	over := float64(src.ExecTime) / float64(base.ExecTime)
	if over < 0.99 {
		t.Fatalf("SRC faster than baseline? ratio %.3f", over)
	}
	if over > 1.25 {
		t.Fatalf("SRC overhead %.1f%% implausibly high (paper: ~1%%)", (over-1)*100)
	}
}

func TestBarriersDrainWPQ(t *testing.T) {
	cpu := newCPU(t, memctrl.ModeBaseline)
	recs := []trace.Record{
		{Op: trace.OpWritePersist, Addr: 0, Gap: 1},
		{Op: trace.OpBarrier},
		{Op: trace.OpWritePersist, Addr: 64, Gap: 1},
	}
	res, err := cpu.Run(trace.NewSlice("t", recs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Barriers != 1 {
		t.Fatalf("barriers = %d", res.Barriers)
	}
	if res.MemOps != 2 {
		t.Fatalf("barriers must not count as memory ops: %d", res.MemOps)
	}
}

func TestWorkloadSuiteSmoke(t *testing.T) {
	// Every workload in the suite must run without error on the secure
	// controller and actually reach memory.
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cpu := newCPU(t, memctrl.ModeSAC)
			gen := w.New(2<<20, 99)
			res, err := cpu.Run(gen, 3000)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if res.MemOps != 3000 {
				t.Fatalf("%s stalled at %d ops", w.Name, res.MemOps)
			}
			if res.Ctrl.MemRequests == 0 {
				t.Fatalf("%s never missed the hierarchy", w.Name)
			}
		})
	}
}

func TestCacheHierarchyFiltersTraffic(t *testing.T) {
	cpu := newCPU(t, memctrl.ModeBaseline)
	// A tiny footprint of ordinary (non-persistent) accesses fits in L1:
	// after warm-up, no controller traffic. (Persistent workloads write
	// through by design, so they always reach the controller.)
	gen := workload.ByNameMust("gcc").New(1<<10, 1)
	res, err := cpu.Run(gen, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ctrl.MemRequests > 200 {
		t.Fatalf("cache-resident workload leaked %d requests to memory", res.Ctrl.MemRequests)
	}
	if res.L1.Hits == 0 {
		t.Fatal("no L1 hits")
	}
}
