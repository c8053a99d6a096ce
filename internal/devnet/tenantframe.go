package devnet

import (
	"encoding/binary"
	"fmt"
)

// TenantFrame is the parsed body of one tenant-plane request: the attach
// that binds a connection, and the bound tenant's rotate and step. (Tenant
// data ops have no frame of their own; they are batch entries on a bound
// connection.) One
// codec (ParseTenantFrame / Encode) is the single entry and exit point
// for every tenant op body on both sides of the wire, so the fuzz target
// exercises exactly what the server parses: any byte string either
// decodes into a frame that re-encodes to the same bytes, or is rejected
// with a typed *FrameError — never a panic, never a silent truncation.
type TenantFrame struct {
	// Op is the tenant-plane opcode: OpTenantAttach, OpTenantRotate or
	// OpTenantStep.
	Op uint8
	// Tenant is the addressed tenant id.
	Tenant uint32
	// Token is the access token (OpTenantAttach).
	Token uint64
	// Max is the sweep step bound (OpTenantStep).
	Max uint32
}

// tenantBodyLen is the exact body length of each tenant op, or -1 for a
// non-tenant op.
func tenantBodyLen(op uint8) int {
	switch op {
	case OpTenantAttach:
		return 12
	case OpTenantRotate:
		return 4
	case OpTenantStep:
		return 8
	default:
		return -1
	}
}

// ParseTenantFrame decodes one tenant op body. Length is checked exactly:
// trailing garbage is a reject, not an ignore.
func ParseTenantFrame(op uint8, body []byte) (TenantFrame, error) {
	want := tenantBodyLen(op)
	if want < 0 {
		return TenantFrame{}, &FrameError{Reason: fmt.Sprintf("op %d is not a tenant op", op)}
	}
	if len(body) != want {
		return TenantFrame{}, &FrameError{Reason: fmt.Sprintf("tenant op %d body is %d bytes, want %d", op, len(body), want)}
	}
	f := TenantFrame{Op: op, Tenant: binary.BigEndian.Uint32(body[:4])}
	switch op {
	case OpTenantAttach:
		f.Token = binary.BigEndian.Uint64(body[4:12])
	case OpTenantStep:
		f.Max = binary.BigEndian.Uint32(body[4:8])
	}
	return f, nil
}

// Encode renders the frame back into its wire body. For every frame that
// ParseTenantFrame accepted, Encode returns the input bytes exactly.
func (f *TenantFrame) Encode() []byte {
	n := tenantBodyLen(f.Op)
	if n < 0 {
		return nil
	}
	out := putU32(make([]byte, 0, n), f.Tenant)
	switch f.Op {
	case OpTenantAttach:
		out = putU64(out, f.Token)
	case OpTenantStep:
		out = putU32(out, f.Max)
	}
	return out
}
