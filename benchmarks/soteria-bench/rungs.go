package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"soteria/internal/config"
	"soteria/internal/ctrenc"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/ecc"
	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/nvm"
	"soteria/internal/shadow"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
	"soteria/internal/wpq"
)

// A rung is one public function of one layer driven stand-alone, on inputs
// shaped like the workload's: 64-byte lines, an NVM device holding as many
// lines as one of the workload's controllers touches, addressed in the
// workload's pattern, and a 128-slot shadow table (one slot per
// metadata-cache way). Its cost is the ns/call of the least disturbed of nine
// segments of calls. A
// rung that calls into lower layers also reports how many lower-layer calls
// one of its calls made, read from those layers' own getters, so the budget
// can charge each layer only for its own code.

// rung is a measured stand-alone function.
type rung struct {
	NS float64 `json:"ns"`
	// Per call of this rung: lines written to and read from the NVM
	// device, and MACs computed.
	NVMWrites float64 `json:"nvm_writes,omitempty"`
	NVMReads  float64 `json:"nvm_reads,omitempty"`
	MACs      float64 `json:"macs,omitempty"`
}

const rungSlots = 128

// sink keeps results observable so the compiler cannot drop the call.
var sink uint64

const rungSegments = 9

// timeCalls returns the ns/call of fn in the least disturbed of rungSegments
// segments of calls calls each: the same rule as the ladder's rungs it is
// stacked against (measure, in run.go).
func timeCalls(calls int, fn func(i int)) float64 {
	var per []float64
	i := 0
	for seg := 0; seg < rungSegments; seg++ {
		t0 := time.Now()
		for end := i + calls; i < end; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return slices.Min(per)
}

// nvmStore adapts an nvm.Device to the line store the BMT and the shadow
// table write through (the controller's own adapter adds WPQ routing).
type nvmStore struct{ d *nvm.Device }

func (s nvmStore) ReadLine(addr uint64) ([nvm.LineSize]byte, error) {
	r := s.d.Read(addr)
	if r.Uncorrectable {
		return r.Data, fmt.Errorf("uncorrectable line %#x", addr)
	}
	return r.Data, nil
}

func (s nvmStore) WriteLine(addr uint64, data *[nvm.LineSize]byte) { s.d.Write(addr, data) }

func (s nvmStore) ReadRaw(addr uint64) (nvm.Line, []int, bool) {
	r := s.d.Read(addr)
	return r.Data, r.BadWords, r.Uncorrectable
}

func macCount(reg *telemetry.Registry) uint64 {
	var n uint64
	for k, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(k, "ctrenc_mac_") {
			n += v
		}
	}
	return n
}

// timeOver measures fn like timeCalls and attributes the device and MAC
// traffic it caused.
func timeOver(dev *nvm.Device, reg *telemetry.Registry, calls int, fn func(i int)) rung {
	d0, m0 := dev.Stats(), macCount(reg)
	ns := timeCalls(calls, fn)
	d1, m1 := dev.Stats(), macCount(reg)
	total := float64(calls * rungSegments)
	return rung{
		NS:        ns,
		NVMWrites: float64(d1.Writes-d0.Writes) / total,
		NVMReads:  float64(d1.Reads-d0.Reads) / total,
		MACs:      float64(m1-m0) / total,
	}
}

// microRungs measures the layers below memctrl, shaped like workload w.
func microRungs(w *workload, seed int64) (map[string]rung, error) {
	out := map[string]rung{}
	var line nvm.Line
	fillLine(&line, 0x40, 1)

	// addr(i) is the i-th line address of the workload's pattern over one
	// controller's share of the working set. Random addresses come from a
	// table drawn before timing.
	footprint := w.lines / uint64(w.shards)
	table := make([]uint64, 1<<16)
	rng := rand.New(rand.NewSource(seed))
	for i := range table {
		if w.cyclic {
			table[i] = uint64(i) % footprint * nvm.LineSize
		} else {
			table[i] = uint64(rng.Int63n(int64(footprint))) * nvm.LineSize
		}
	}
	addr := func(i int) uint64 { return table[i%len(table)] }

	ck := ecc.NewChipkill()
	check := make([]byte, ck.CheckBytes())
	out["ecc.encode_ns"] = rung{NS: timeCalls(100000, func(i int) {
		line[0] = byte(i)
		ck.EncodeInto(check, line[:])
	})}
	ck.EncodeInto(check, line[:])
	out["ecc.decode_clean_ns"] = rung{NS: timeCalls(100000, func(i int) {
		if ck.Decode(line[:], check).Uncorrectable {
			sink++
		}
	})}

	newDev := func(lines uint64) (*nvm.Device, error) {
		return nvm.NewDevice(lines*nvm.LineSize, ecc.NewChipkill())
	}
	dev, err := newDev(footprint)
	if err != nil {
		return nil, err
	}
	for l := uint64(0); l < footprint; l++ {
		dev.Write(l*nvm.LineSize, &line)
	}
	out["nvm.write_ns"] = rung{NS: timeCalls(100000, func(i int) {
		line[0] = byte(i)
		dev.Write(addr(i), &line)
	})}
	out["nvm.read_ns"] = rung{NS: timeCalls(100000, func(i int) {
		sink += uint64(dev.Read(addr(i)).Data[0])
	})}

	eng, err := ctrenc.NewEngine(benchKey)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	eng.AttachTelemetry(reg)
	out["ctrenc.encrypt_ns"] = rung{NS: timeCalls(100000, func(i int) {
		ct := eng.Encrypt(addr(i), uint64(i), &line)
		sink += uint64(ct[0])
	})}
	out["ctrenc.mac_ns"] = rung{NS: timeCalls(200000, func(i int) {
		sink += eng.MAC(ctrenc.DomainData, uint64(i), 42, line[:])
	})}
	var cb ctrenc.CounterBlock
	cb.Major = 12345
	out["ctrenc.ctrblock_roundtrip_ns"] = rung{NS: timeCalls(100000, func(i int) {
		cb.Minors[i%ctrenc.CountersPerBlock] = uint8(i % ctrenc.MinorMax)
		l := cb.Serialize()
		sink += ctrenc.DeserializeCounterBlock(&l).Major
	})}

	// The shadow region's shape in the controller: rungSlots entry lines
	// with their BMT right above.
	const treeBase = rungSlots * nvm.LineSize
	shadowLines := rungSlots + itree.BMTStorageLines(rungSlots)
	bdev, err := newDev(shadowLines)
	if err != nil {
		return nil, err
	}
	bmt, err := itree.NewBMT(eng, nvmStore{bdev}, 0, rungSlots, treeBase)
	if err != nil {
		return nil, err
	}
	var rungErr error
	note := func(err error) {
		if err != nil && rungErr == nil {
			rungErr = err
		}
	}
	out["itree.bmt_update_ns"] = timeOver(bdev, reg, 10000, func(i int) {
		line[0] = byte(i)
		note(bmt.Update(uint64(i%rungSlots), &line))
	})
	out["itree.bmt_verify_ns"] = timeOver(bdev, reg, 10000, func(i int) {
		_, err := bmt.Verify(uint64(i % rungSlots))
		note(err)
	})

	sdev, err := newDev(shadowLines)
	if err != nil {
		return nil, err
	}
	tbl, err := shadow.NewTable(eng, nvmStore{sdev}, 0, rungSlots, treeBase, shadow.Options{Duplicate: true})
	if err != nil {
		return nil, err
	}
	entry := func(i int) shadow.Entry {
		return shadow.Entry{Valid: true, Addr: uint64(i) * nvm.LineSize, MAC: uint64(i), LSBs: [8]uint16{uint16(i)}}
	}
	write := timeOver(sdev, reg, 10000, func(i int) { note(tbl.Write(i%rungSlots, entry(i))) })
	out["shadow.write_ns"] = write
	// Invalidate only acts on a valid slot, so it is timed as a
	// write+invalidate pair minus the write.
	pair := timeOver(sdev, reg, 10000, func(i int) {
		note(tbl.Write(i%rungSlots, entry(i)))
		note(tbl.Invalidate(i % rungSlots))
	})
	out["shadow.invalidate_ns"] = rung{
		NS:        pair.NS - write.NS,
		NVMWrites: pair.NVMWrites - write.NVMWrites,
		NVMReads:  pair.NVMReads - write.NVMReads,
		MACs:      pair.MACs - write.MACs,
	}

	sec := config.TestSystem().Security
	mc, err := metacache.New(sec.MetadataCache, 4)
	if err != nil {
		return nil, err
	}
	slots := mc.Slots()
	for i := 0; i < slots; i++ {
		mc.Insert(uint64(i)*nvm.LineSize, metacache.Block{Kind: metacache.KindCounter, Level: 1, Index: uint64(i)}, false)
	}
	out["metacache.lookup_hit_ns"] = rung{NS: timeCalls(200000, func(i int) {
		if b, ok := mc.Lookup(uint64(i%slots) * nvm.LineSize); ok {
			sink += b.Index
		}
	})}

	// The WPQ drains on the simulated clock, so each push advances it by
	// one write latency: the queue stays in steady state, never stalled.
	nvmCfg := config.TestSystem().NVM
	writeLat := sim.FromDuration(nvmCfg.WriteLatency)
	qdev, err := newDev(footprint)
	if err != nil {
		return nil, err
	}
	q, err := wpq.New(qdev, sim.NewBanks(nvmCfg.Banks), nvmCfg.WPQEntries, writeLat)
	if err != nil {
		return nil, err
	}
	var now sim.Time
	out["wpq.push_ns"] = timeOver(qdev, reg, 50000, func(i int) {
		now = q.Push(now, addr(i), &line) + writeLat
	})
	// A node and its two SRC clones commit as one atomic group.
	group := make([]wpq.Write, 3)
	out["wpq.push_atomic_ns"] = timeOver(qdev, reg, 20000, func(i int) {
		for j := range group {
			group[j] = wpq.Write{Addr: addr(i*3 + j), Data: line}
		}
		now = q.PushAtomic(now, group) + 3*writeLat
	})
	return out, rungErr
}

// rttRung measures the loopback round trip of the wire protocol alone:
// Client.Ping against a server with an idle device.
func rttRung() (p50, p99 float64, samples int, err error) {
	dev, err := device.New(deviceOptions(findWorkload("net-pipe"), false))
	if err != nil {
		return 0, 0, 0, err
	}
	defer dev.Close()
	addr, stop, err := serve(devnet.NewServer(dev))
	if err != nil {
		return 0, 0, 0, err
	}
	defer stop()
	cl, err := devnet.Dial(addr)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Close()
	lat := make([]int64, 0, rttPings)
	for i := 0; i < rttPings/10+rttPings; i++ {
		t0 := time.Now()
		if err := cl.Ping(); err != nil {
			return 0, 0, 0, err
		}
		if i >= rttPings/10 { // the first tenth warms the connection
			lat = append(lat, time.Since(t0).Nanoseconds())
		}
	}
	return quantile(lat, 0.5) / 1e3, quantile(lat, 0.99) / 1e3, len(lat), nil
}

// stackRungs are the layers from memctrl up, each driven alone by one
// closed-loop caller on a fixed stream.
var stackRungs = []struct {
	metric string
	kind   kind
	w      workload
}{
	{"memctrl.write_ns", kindCtrl, workload{sampleEvery: 64, gens: 1, shards: 1, lines: 512, cyclic: true, epochOps: 600_000}},
	{"memctrl.read_ns", kindCtrl, workload{sampleEvery: 64, gens: 1, shards: 1, lines: 512, cyclic: true, readEvery: 1, epochOps: 1_200_000}},
	{"device.batch_ns_per_op", kindBatch, workload{sampleEvery: 64, gens: 1, shards: 8, lines: 4096, readEvery: 4, epochOps: 600_000}},
}
