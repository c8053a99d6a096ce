package shadow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"soteria/internal/ctrenc"
	"soteria/internal/nvm"
	"soteria/internal/telemetry"
)

// refTable is the eager reference for Table: every entry line is encoded
// by zeroing it and putting its fields one by one (the second half copied
// or marked invalid), and every line write takes its keyed leaf hash at
// once, which every verify compares. Its slots start at address 0.
type refTable struct {
	eng                   *ctrenc.Engine
	store                 Store
	slots                 uint64
	content, duped, norep bool
	hashes                []uint64
	valid                 []bool
	stats, atCrash        Stats
}

func newRefTable(eng *ctrenc.Engine, store Store, slots uint64, l layout, norep bool) *refTable {
	r := &refTable{eng: eng, store: store, slots: slots, content: l.content, duped: l.dup, norep: norep,
		valid: make([]bool, slots)}
	r.hashes = make([]uint64, slots*r.lines())
	var zero, invalid nvm.Line
	r.encode(&Entry{}, &invalid)
	for i := uint64(0); i < slots; i++ {
		store.WriteLine(r.leaf(i)*nvm.LineSize, &invalid)
		if r.content {
			store.WriteLine((r.leaf(i)+1)*nvm.LineSize, &zero)
		}
	}
	for i := range r.hashes {
		line, err := store.ReadLine(uint64(i) * nvm.LineSize)
		if err != nil {
			panic(err)
		}
		r.hashes[i] = r.hash(uint64(i), &line)
	}
	return r
}

func (r *refTable) lines() uint64 {
	if r.content {
		return ContentLinesPerSlot
	}
	return 1
}

func (r *refTable) leaf(slot uint64) uint64 { return slot * r.lines() }

func (r *refTable) hash(leaf uint64, line *nvm.Line) uint64 {
	return r.eng.MAC(ctrenc.DomainShadowTree, leaf, 0, line[:])
}

func refPutHalf(e *Entry, h []byte) {
	if !e.Valid {
		binary.LittleEndian.PutUint64(h[0:8], invalidAddr)
		return
	}
	binary.LittleEndian.PutUint64(h[0:8], e.Addr)
	for i, v := range e.LSBs {
		binary.LittleEndian.PutUint16(h[8+i*2:10+i*2], v)
	}
	binary.LittleEndian.PutUint64(h[24:32], e.MAC)
}

func (r *refTable) encode(e *Entry, line *nvm.Line) {
	*line = nvm.Line{}
	if r.content {
		addr, mac := invalidAddr, uint64(0)
		if e.Valid {
			addr, mac = e.Addr, imageMAC(r.eng, e.Addr, &e.Image)
		}
		binary.LittleEndian.PutUint64(line[0:8], addr)
		binary.LittleEndian.PutUint64(line[8:16], mac)
		return
	}
	refPutHalf(e, line[:HalfSize])
	if r.duped {
		copy(line[HalfSize:], line[:HalfSize])
	} else {
		binary.LittleEndian.PutUint64(line[HalfSize:HalfSize+8], invalidAddr)
	}
}

func (r *refTable) update(leaf uint64, line *nvm.Line) {
	r.store.WriteLine(leaf*nvm.LineSize, line)
	r.hashes[leaf] = r.hash(leaf, line)
}

func (r *refTable) verify(leaf uint64) (nvm.Line, error) {
	line, err := r.store.ReadLine(leaf * nvm.LineSize)
	if err != nil {
		return nvm.Line{}, err
	}
	if r.hash(leaf, &line) != r.hashes[leaf] {
		return nvm.Line{}, errors.New("hash mismatch")
	}
	return line, nil
}

func (r *refTable) put(slot uint64, e *Entry) {
	if r.content {
		r.update(r.leaf(slot)+1, &e.Image)
	}
	var line nvm.Line
	r.encode(e, &line)
	r.update(r.leaf(slot), &line)
	r.valid[slot] = e.Valid
	r.stats.EntryWrites++
}

func (r *refTable) reset(slot uint64) {
	var line nvm.Line
	r.encode(&Entry{}, &line)
	r.update(r.leaf(slot), &line)
	r.valid[slot] = false
	r.stats.Invalidations++
}

func (r *refTable) invalidate(slot uint64) {
	if r.valid[slot] {
		r.reset(slot)
	}
}

func (r *refTable) crash() {
	clear(r.valid)
	r.atCrash = r.stats
}

func (r *refTable) statsNow() Stats {
	return Stats{
		EntryWrites:   r.stats.EntryWrites - r.atCrash.EntryWrites,
		Invalidations: r.stats.Invalidations - r.atCrash.Invalidations,
		HalfRepairs:   r.stats.HalfRepairs - r.atCrash.HalfRepairs,
		LostEntries:   r.stats.LostEntries - r.atCrash.LostEntries,
	}
}

func (r *refTable) lost() (Entry, bool, error) {
	r.stats.LostEntries++
	return Entry{}, false, errors.New("lost")
}

func (r *refTable) load(slot uint64) (Entry, bool, error) {
	leaf := r.leaf(slot)
	if r.content {
		header, err := r.verify(leaf)
		if err != nil {
			return r.lost()
		}
		e := Entry{Addr: binary.LittleEndian.Uint64(header[0:8]), MAC: binary.LittleEndian.Uint64(header[8:16])}
		if e.Addr == invalidAddr {
			r.valid[slot] = false
			return Entry{}, false, nil
		}
		if e.Image, err = r.verify(leaf + 1); err != nil {
			return r.lost()
		}
		if imageMAC(r.eng, e.Addr, &e.Image) != e.MAC {
			return r.lost()
		}
		e.Valid = true
		r.valid[slot] = true
		return e, true, nil
	}
	raw, bad, unc := r.store.ReadRaw(leaf * nvm.LineSize)
	if unc {
		if !r.duped || r.norep {
			return r.lost()
		}
		lowBad, highBad := false, false
		for _, w := range bad {
			lowBad = lowBad || w < 4
			highBad = highBad || w >= 4
		}
		if lowBad && highBad {
			return r.lost()
		}
		if lowBad {
			copy(raw[:HalfSize], raw[HalfSize:])
		} else {
			copy(raw[HalfSize:], raw[:HalfSize])
		}
		r.store.WriteLine(leaf*nvm.LineSize, &raw)
		r.stats.HalfRepairs++
	}
	line, err := r.verify(leaf)
	if err != nil {
		return r.lost()
	}
	e := decodeHalf(line[:HalfSize])
	r.valid[slot] = e.Valid
	return e, e.Valid, nil
}

func (r *refTable) loadAll() (entries []SlotEntry, lost []uint64) {
	for i := uint64(0); i < r.slots; i++ {
		e, ok, err := r.load(i)
		if err != nil {
			lost = append(lost, i)
			continue
		}
		if ok {
			entries = append(entries, SlotEntry{Slot: i, Entry: e})
		}
	}
	return entries, lost
}

func (r *refTable) validSlots() []uint64 {
	var out []uint64
	for i, v := range r.valid {
		if v {
			out = append(out, uint64(i))
		}
	}
	return out
}

// FuzzShadowTableMatchesReference runs one script over a Table and over
// refTable, each on its own Chipkill device, and demands that after every
// step both devices hold the same bytes over the table's region, that
// every Load and LoadAllSlots returns the same entries, the same ok and
// the same error-or-not, that Stats and ValidSlots agree, and that the
// shadow-tree MACs booked match the reference's eager hash count.
//
// format%3 picks the duplicated LSB, single LSB or content format;
// format&4 sets DisableHalfRepair. The script is read in (op, arg) byte
// pairs; arg picks the slot (arg%8) and seeds the entry. Ops, by op%12:
// Put, Write, PutLSB (a content table must refuse it), Invalidate, Reset,
// Crash, Load, LoadAllSlots, and four attacks made on both devices alike
// behind the tables' backs: flip a byte of a line, swap two lines, replay
// a line's previous contents, and kill one 8-byte codeword (one half of an
// LSB entry).
func FuzzShadowTableMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 6, 3, 8, 0x13, 6, 3, 11, 0x23, 6, 3, 5, 0, 7, 0})
	f.Add(uint8(1), []byte{2, 1, 11, 1, 6, 1, 3, 1, 3, 1, 4, 2, 7, 0})
	f.Add(uint8(2), []byte{0, 4, 1, 5, 9, 0x14, 6, 4, 6, 5, 10, 4, 7, 0, 2, 4})
	f.Add(uint8(4), []byte{0, 2, 11, 0x12, 6, 2, 0, 2, 0, 2, 10, 2, 5, 0, 7, 0})
	f.Add(uint8(0), []byte{0, 1, 0, 0x81, 10, 1, 6, 1, 0, 2, 0, 3, 9, 0x32, 5, 0, 7, 0, 1, 0x0F, 6, 7})
	f.Fuzz(func(t *testing.T, format uint8, script []byte) {
		const slots = 8
		l := layouts[format%3]
		norep := format&4 != 0 && l.dup
		devA, devB := newSmallDevice(t), newSmallDevice(t)
		engA := ctrenc.MustNewEngine([]byte("shadow-fuzz"))
		engB := ctrenc.MustNewEngine([]byte("shadow-fuzz"))
		var tb *Table
		var err error
		if l.content {
			tb, err = NewContentTable(engA, devStore{devA}, 0, slots)
		} else {
			tb, err = NewTable(engA, devStore{devA}, 0, slots, 0, Options{Duplicate: l.dup, DisableHalfRepair: norep})
		}
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTable(engB, devStore{devB}, slots, l, norep)
		regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
		engA.AttachTelemetry(regA)
		engB.AttachTelemetry(regB)
		macs := func(r *telemetry.Registry) uint64 { return r.Counter("ctrenc_mac_shadow_tree_total").Value() }

		leaves := slots * ref.lines()
		// prev holds each line's contents before its last change by a
		// table write, for the replay attack.
		prev := map[uint64]nvm.Line{}
		remember := func(slot uint64, lines uint64) {
			for k := uint64(0); k < lines; k++ {
				a := (ref.leaf(slot) + k) * nvm.LineSize
				prev[a] = devA.ReadRaw(a)
			}
		}
		both := func(f func(d *nvm.Device)) { f(devA); f(devB) }
		sameLoad := func(step int, what string, a, b Entry, okA, okB bool, errA, errB error) {
			t.Helper()
			if a != b || okA != okB || (errA == nil) != (errB == nil) {
				t.Fatalf("step %d %s: table (%+v, %t, %v), reference (%+v, %t, %v)", step, what, a, okA, errA, b, okB, errB)
			}
		}

		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%12, script[i+1]
			slot := uint64(arg) % slots
			e := Entry{Valid: arg%16 != 15, Addr: uint64(arg)<<6 | uint64(i)<<14, MAC: uint64(i)*0x9E3779B97F4A7C15 ^ uint64(arg)}
			for k := range e.LSBs {
				e.LSBs[k] = uint16(i*31 + k*int(arg))
			}
			for k := range e.Image {
				e.Image[k] = byte(i + k*int(arg))
			}
			what := fmt.Sprintf("op %d slot %d", op, slot)
			switch op {
			case 0, 1:
				remember(slot, ref.lines())
				if op == 0 {
					err = tb.Put(int(slot), &e)
				} else {
					err = tb.Write(int(slot), e)
				}
				if err != nil {
					t.Fatalf("step %d %s: %v", i, what, err)
				}
				ref.put(slot, &e)
			case 2:
				remember(slot, 1)
				err = tb.PutLSB(int(slot), e.Addr, PackLSBs(&e.LSBs), e.MAC)
				if l.content {
					if err == nil {
						t.Fatalf("step %d: PutLSB on a content table accepted", i)
					}
					break
				}
				if err != nil {
					t.Fatalf("step %d %s: %v", i, what, err)
				}
				e.Valid = true
				ref.put(slot, &e)
			case 3:
				remember(slot, 1)
				if err := tb.Invalidate(int(slot)); err != nil {
					t.Fatalf("step %d %s: %v", i, what, err)
				}
				ref.invalidate(slot)
			case 4:
				remember(slot, 1)
				if err := tb.Reset(slot); err != nil {
					t.Fatalf("step %d %s: %v", i, what, err)
				}
				ref.reset(slot)
			case 5:
				tb.Crash()
				ref.crash()
			case 6:
				a, okA, errA := tb.Load(slot)
				b, okB, errB := ref.load(slot)
				sameLoad(i, what, a, b, okA, okB, errA, errB)
			case 7:
				a, lostA := tb.LoadAllSlots()
				b, lostB := ref.loadAll()
				if !slices.Equal(a, b) || !slices.Equal(lostA, lostB) {
					t.Fatalf("step %d LoadAllSlots: table %+v lost %v, reference %+v lost %v", i, a, lostA, b, lostB)
				}
			case 8:
				addr := uint64(arg) % leaves * nvm.LineSize
				line := devA.ReadRaw(addr)
				line[arg>>3%nvm.LineSize] ^= 1 << (arg % 8)
				both(func(d *nvm.Device) { d.Write(addr, &line) })
			case 9:
				x := uint64(arg) % leaves
				y := (x + 1 + uint64(arg>>4)) % leaves
				lx, ly := devA.ReadRaw(x*nvm.LineSize), devA.ReadRaw(y*nvm.LineSize)
				both(func(d *nvm.Device) { d.Write(x*nvm.LineSize, &ly); d.Write(y*nvm.LineSize, &lx) })
			case 10:
				addr := uint64(arg) % leaves * nvm.LineSize
				if old, ok := prev[addr]; ok {
					both(func(d *nvm.Device) { d.Write(addr, &old) })
				}
			case 11:
				addr := uint64(arg) % leaves * nvm.LineSize
				both(func(d *nvm.Device) { d.CorruptWord(addr, int(arg>>4)) })
			}
			for k := uint64(0); k < leaves; k++ {
				if a, b := devA.ReadRaw(k*nvm.LineSize), devB.ReadRaw(k*nvm.LineSize); a != b {
					t.Fatalf("step %d %s: line %d is\n%x\nin the table's NVM, reference\n%x", i, what, k, a, b)
				}
			}
			if a, b := tb.Stats(), ref.statsNow(); a != b {
				t.Fatalf("step %d %s: stats %+v, reference %+v", i, what, a, b)
			}
			if a, b := tb.ValidSlots(), ref.validSlots(); !slices.Equal(a, b) {
				t.Fatalf("step %d %s: valid slots %v, reference %v", i, what, a, b)
			}
			if a, b := macs(regA), macs(regB); a != b {
				t.Fatalf("step %d %s: %d shadow-tree MACs booked, reference computed %d", i, what, a, b)
			}
		}
	})
}

// newSmallDevice is a Chipkill device just large enough for the fuzzed
// tables, so each input builds two quickly.
func newSmallDevice(t *testing.T) *nvm.Device {
	t.Helper()
	dev, err := nvm.NewDevice(4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}
