// Package tenant layers a multi-tenant secure-memory service over the
// sharded device: a crash-persistent tenant registry,
// per-tenant key domains derived from one master key (ctrenc subkeys),
// address-space virtualization mapping (tenant, addr) onto the sharded
// physical space, per-tenant quotas with fair-share admission, and online
// key rotation as lazy re-encryption with a crash-safely persisted
// rotation epoch.
//
// Physical layout (units: 64-byte lines of the device's global space):
//
//	line 0                        superblock
//	lines 1..MaxTenants           one registry record per tenant id
//	lines MaxTenants+1..          bump-allocated tenant extents
//
// A tenant's extent is contiguous in global line space — which stripes it
// across every shard, since the device interleaves lines — and holds TWO
// physical slot lines per data line (shadow paging: slot = write counter
// parity) followed by its guard table (32-byte guard entries, two per
// line). Registry, guard and data lines are all ordinary device lines,
// so they inherit the device's own encryption, integrity tree and WPQ
// crash-consistency; the tenant layer's ciphertext and MACs sit on top as
// the per-tenant key domain.
package tenant

import (
	"encoding/binary"
	"fmt"

	"soteria/internal/nvm"
)

const (
	// superMagic/recordMagic tag the registry's persistent lines.
	superMagic  uint64 = 0x31305342_544f53 // "SOTSB01\0" little-endian
	recordMagic uint32 = 0x4e455453        // "STEN"

	// registryVersion is bumped on any change to the persistent registry
	// layout (superblock or record codec).
	registryVersion = 1

	// DefaultMaxTenants bounds tenant ids (1..DefaultMaxTenants) and sizes
	// the registry region.
	DefaultMaxTenants = 64

	// guardEntrySize is one guard-table entry: current and previous data
	// MAC plus their write counters. Two entries per 64-byte guard line.
	guardEntrySize    = 32
	guardEntriesPerLn = nvm.LineSize / guardEntrySize

	// flagActive/flagRotating are the record flag bits.
	flagActive   = 1 << 0
	flagRotating = 1 << 1
)

// superblock is the persistent root of the registry (line 0).
type superblock struct {
	maxTenants uint32
	capLines   uint64
	// nextFree is the bump allocator's high-water line. It is advanced
	// and persisted BEFORE the record that uses the space, so a crash
	// between the two leaks the reservation instead of overlapping it.
	nextFree uint64
	// keyCheck detects opening a registry with the wrong master key.
	keyCheck uint64
	// gen is the boot generation, bumped (and persisted) every time an
	// existing registry is opened. It is mixed into every counter word, so
	// a write retried after a crash can never reuse the one-time pad of
	// the torn pre-crash attempt even though the per-line counter restarts
	// from the last durably guarded value.
	gen uint32
}

func (sb *superblock) encode() nvm.Line {
	var l nvm.Line
	binary.LittleEndian.PutUint64(l[0:8], superMagic)
	binary.LittleEndian.PutUint32(l[8:12], registryVersion)
	binary.LittleEndian.PutUint32(l[12:16], sb.maxTenants)
	binary.LittleEndian.PutUint64(l[16:24], sb.capLines)
	binary.LittleEndian.PutUint64(l[24:32], sb.nextFree)
	binary.LittleEndian.PutUint64(l[32:40], sb.keyCheck)
	binary.LittleEndian.PutUint32(l[40:44], sb.gen)
	return l
}

func decodeSuperblock(l *nvm.Line) (superblock, error) {
	var sb superblock
	if binary.LittleEndian.Uint64(l[0:8]) != superMagic {
		return sb, fmt.Errorf("tenant: bad superblock magic")
	}
	if v := binary.LittleEndian.Uint32(l[8:12]); v != registryVersion {
		return sb, fmt.Errorf("tenant: registry version %d, want %d", v, registryVersion)
	}
	sb.maxTenants = binary.LittleEndian.Uint32(l[12:16])
	sb.capLines = binary.LittleEndian.Uint64(l[16:24])
	sb.nextFree = binary.LittleEndian.Uint64(l[24:32])
	sb.keyCheck = binary.LittleEndian.Uint64(l[32:40])
	sb.gen = binary.LittleEndian.Uint32(l[40:44])
	return sb, nil
}

// Record is one tenant's registry entry. The persistent fields round-trip
// through one 64-byte registry line; a record update is a single
// acknowledged device write, which is the crash-safety unit every state
// transition below (provisioning, rotation begin, rotation completion)
// leans on.
type Record struct {
	// ID is the tenant id (1..MaxTenants); its registry line is line ID.
	ID uint32
	// Active marks a provisioned tenant.
	Active bool
	// Rotating marks an in-progress key rotation: Epoch is already the
	// new key domain, Epoch-1 is still admissible for reads, and the
	// rotation sweep is re-encrypting stragglers.
	Rotating bool
	// Epoch is the current key-domain epoch (starts at 1).
	Epoch uint32
	// QuotaOps is the hard per-window operation budget (0 = unlimited).
	QuotaOps uint32
	// BaseLine is the first global line of the tenant's extent.
	BaseLine uint64
	// DataLines is the extent's data size in lines. The physical data
	// region holds two slot lines per data line (shadow paging), and
	// ceil(DataLines/2) guard lines follow it.
	DataLines uint64
	// AuthCheck is the tenant's access token (a master-key MAC); stored
	// so a wrong-master-key open is detected at load.
	AuthCheck uint64
}

// guardLines is the size of the tenant's guard table in lines.
func (r *Record) guardLines() uint64 {
	return (r.DataLines + guardEntriesPerLn - 1) / guardEntriesPerLn
}

// extentLines is the tenant's total footprint: two physical slots per
// data line plus the guard table.
func (r *Record) extentLines() uint64 { return 2*r.DataLines + r.guardLines() }

// dataLine maps a tenant-local line index and a slot parity (write
// counter & 1) to the global line of that physical slot. The two slots of
// a line are adjacent; successive writes alternate between them, so the
// slot a write lands in never holds the value the guard's slots still
// reference.
func (r *Record) dataLine(i uint64, parity uint32) uint64 {
	return r.BaseLine + 2*i + uint64(parity&1)
}

// guardLine maps a tenant-local line index to the global line holding its
// guard entry, and the entry's byte offset within that line.
func (r *Record) guardLine(i uint64) (line uint64, off int) {
	return r.BaseLine + 2*r.DataLines + i/guardEntriesPerLn,
		int(i%guardEntriesPerLn) * guardEntrySize
}

func (r *Record) encode() nvm.Line {
	var l nvm.Line
	binary.LittleEndian.PutUint32(l[0:4], recordMagic)
	binary.LittleEndian.PutUint32(l[4:8], r.ID)
	var flags uint8
	if r.Active {
		flags |= flagActive
	}
	if r.Rotating {
		flags |= flagRotating
	}
	l[8] = flags
	binary.LittleEndian.PutUint32(l[12:16], r.Epoch)
	binary.LittleEndian.PutUint32(l[16:20], r.QuotaOps)
	binary.LittleEndian.PutUint64(l[24:32], r.BaseLine)
	binary.LittleEndian.PutUint64(l[32:40], r.DataLines)
	binary.LittleEndian.PutUint64(l[40:48], r.AuthCheck)
	return l
}

func decodeRecord(l *nvm.Line) (Record, error) {
	var r Record
	if binary.LittleEndian.Uint32(l[0:4]) != recordMagic {
		return r, fmt.Errorf("tenant: bad record magic")
	}
	r.ID = binary.LittleEndian.Uint32(l[4:8])
	r.Active = l[8]&flagActive != 0
	r.Rotating = l[8]&flagRotating != 0
	r.Epoch = binary.LittleEndian.Uint32(l[12:16])
	r.QuotaOps = binary.LittleEndian.Uint32(l[16:20])
	r.BaseLine = binary.LittleEndian.Uint64(l[24:32])
	r.DataLines = binary.LittleEndian.Uint64(l[32:40])
	r.AuthCheck = binary.LittleEndian.Uint64(l[40:48])
	return r, nil
}

// guardEntry is one data line's authentication state: the MAC, write
// counter and boot generation of the current value and of the previous
// value. The write protocol writes the NEW ciphertext into the stale
// physical slot first (slot = counter parity — the slot holding the
// two-writes-old version nothing references anymore) and then commits
// with a single guard-entry write. The guard write is therefore the
// atomic commit point: a crash anywhere before it leaves the old guard
// whose cur slot still points at intact old ciphertext; a crash after it
// exposes the new value, whose data write already landed. Ctr is 0 only
// for a never-written slot (the first write uses counter 1), which is how
// an untouched line reads back as zeros without a MAC.
type guardEntry struct {
	curMAC  uint64
	prevMAC uint64
	curCtr  uint32
	prevCtr uint32
	curGen  uint32
	prevGen uint32
}

func (g *guardEntry) written() bool { return g.curCtr != 0 }

func putGuardEntry(l *nvm.Line, off int, g guardEntry) {
	binary.LittleEndian.PutUint64(l[off:off+8], g.curMAC)
	binary.LittleEndian.PutUint64(l[off+8:off+16], g.prevMAC)
	binary.LittleEndian.PutUint32(l[off+16:off+20], g.curCtr)
	binary.LittleEndian.PutUint32(l[off+20:off+24], g.prevCtr)
	binary.LittleEndian.PutUint32(l[off+24:off+28], g.curGen)
	binary.LittleEndian.PutUint32(l[off+28:off+32], g.prevGen)
}

func getGuardEntry(l *nvm.Line, off int) guardEntry {
	return guardEntry{
		curMAC:  binary.LittleEndian.Uint64(l[off : off+8]),
		prevMAC: binary.LittleEndian.Uint64(l[off+8 : off+16]),
		curCtr:  binary.LittleEndian.Uint32(l[off+16 : off+20]),
		prevCtr: binary.LittleEndian.Uint32(l[off+20 : off+24]),
		curGen:  binary.LittleEndian.Uint32(l[off+24 : off+28]),
		prevGen: binary.LittleEndian.Uint32(l[off+28 : off+32]),
	}
}
