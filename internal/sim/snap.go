package sim

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Snapshot codec: the deterministic binary format shared by every
// Checkpoint/Restore implementation in the tree. Writers are append-only;
// readers carry a sticky error so call sites can decode a whole structure
// and check once at the end. All integers are little-endian. The format has
// no self-description — reader and writer must agree field-for-field, which
// is enforced by the golden round-trip tests and the envelope version.

// SnapW accumulates a snapshot payload.
type SnapW struct {
	b []byte
}

// Data returns the accumulated payload.
func (w *SnapW) Data() []byte { return w.b }

// Len returns the number of bytes written so far.
func (w *SnapW) Len() int { return len(w.b) }

// U8 appends one byte.
func (w *SnapW) U8(v uint8) { w.b = append(w.b, v) }

// U16 appends a little-endian uint16.
func (w *SnapW) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// U32 appends a little-endian uint32.
func (w *SnapW) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 appends a little-endian uint64.
func (w *SnapW) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// I64 appends a little-endian int64.
func (w *SnapW) I64(v int64) { w.U64(uint64(v)) }

// Time appends a simulation timestamp.
func (w *SnapW) Time(t Time) { w.I64(int64(t)) }

// Bool appends a boolean as one byte.
func (w *SnapW) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends p verbatim, with no length prefix.
func (w *SnapW) Raw(p []byte) { w.b = append(w.b, p...) }

// Bytes appends a uint32 length prefix followed by p.
func (w *SnapW) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.Raw(p)
}

// String appends s with a uint32 length prefix.
func (w *SnapW) String(s string) {
	w.U32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// SnapR decodes a snapshot payload. The first decode failure sets a sticky
// error; every subsequent read returns zero values, so a corrupted or
// truncated payload degrades to an error, never a panic — the property the
// checkpoint fuzz target asserts.
type SnapR struct {
	b   []byte
	off int
	err error
}

// NewSnapR wraps data for reading.
func NewSnapR(data []byte) *SnapR { return &SnapR{b: data} }

// Err returns the sticky decode error, if any.
func (r *SnapR) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *SnapR) Remaining() int { return len(r.b) - r.off }

// Done returns the sticky error, or an error if unread bytes remain.
func (r *SnapR) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("sim: snapshot has %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// Fail records err (the first one wins) and poisons further reads.
func (r *SnapR) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *SnapR) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Fail(fmt.Errorf("sim: snapshot truncated (need %d bytes, have %d)", n, r.Remaining()))
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte.
func (r *SnapR) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U16 reads a little-endian uint16.
func (r *SnapR) U16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// U32 reads a little-endian uint32.
func (r *SnapR) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (r *SnapR) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads a little-endian int64.
func (r *SnapR) I64() int64 { return int64(r.U64()) }

// Time reads a simulation timestamp.
func (r *SnapR) Time() Time { return Time(r.I64()) }

// Bool reads a boolean; any byte other than 0 or 1 is a decode error.
func (r *SnapR) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("sim: snapshot bool out of range"))
		return false
	}
}

// Raw reads exactly n bytes (a view into the payload, valid until the
// payload is mutated).
func (r *SnapR) Raw(n int) []byte { return r.take(n) }

// Bytes reads a uint32-length-prefixed byte slice.
func (r *SnapR) Bytes() []byte { return r.take(int(r.U32())) }

// String reads a uint32-length-prefixed string.
func (r *SnapR) String() string { return string(r.Bytes()) }

// Count reads a uint32 element count and validates it against the bytes
// actually remaining, assuming each element occupies at least elemSize
// bytes. This bounds allocations when decoding hostile input: a corrupted
// count fails here instead of driving a huge make().
func (r *SnapR) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > r.Remaining()/elemSize {
		r.Fail(fmt.Errorf("sim: snapshot count %d exceeds remaining payload", n))
		return 0
	}
	return n
}

// Envelope: every externally visible checkpoint is sealed as
//
//	"SOTC" | u16 kind | u16 version | u32 payload len | payload | u32 CRC32-C
//
// so Restore can cheaply reject foreign or corrupted bytes before touching
// any state.

// Snapshot envelope kinds.
const (
	SnapKindController uint16 = 1 // one memctrl.Controller
	SnapKindEngine     uint16 = 2 // a whole device.Device
	SnapKindTrace      uint16 = 3 // a chaos replay trace
	SnapKindTenant     uint16 = 4 // a tenant.Service (embeds a device checkpoint)
)

var snapMagic = [4]byte{'S', 'O', 'T', 'C'}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

const snapEnvelopeOverhead = 4 + 2 + 2 + 4 + 4

// Seal wraps payload in the snapshot envelope.
func Seal(kind, version uint16, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+snapEnvelopeOverhead)
	out = append(out, snapMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, kind)
	out = binary.LittleEndian.AppendUint16(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[:len(out)], snapCRC))
	return out
}

// Open validates the envelope (magic, kind, version, length, checksum) and
// returns the payload.
func Open(kind, version uint16, data []byte) ([]byte, error) {
	if len(data) < snapEnvelopeOverhead {
		return nil, fmt.Errorf("sim: snapshot too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != snapMagic {
		return nil, fmt.Errorf("sim: snapshot magic mismatch")
	}
	if k := binary.LittleEndian.Uint16(data[4:6]); k != kind {
		return nil, fmt.Errorf("sim: snapshot kind %d, want %d", k, kind)
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v != version {
		return nil, fmt.Errorf("sim: snapshot version %d, want %d", v, version)
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if len(data) != n+snapEnvelopeOverhead {
		return nil, fmt.Errorf("sim: snapshot length %d, envelope says %d", len(data)-snapEnvelopeOverhead, n)
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, snapCRC); got != want {
		return nil, fmt.Errorf("sim: snapshot checksum mismatch")
	}
	return data[12 : 12+n], nil
}
