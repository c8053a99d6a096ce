// The data plane's framing: one OpBatch frame carries many read, write
// and drain ops — a stop-and-wait op is a batch of one — encoded
// append-only into a reusable buffer and decoded in place, so the
// steady-state hot path on both sides allocates nothing per op.
//
// Request body (after the [u8 op][u64 session][u64 seq] header):
//
//	[u32 count]
//	count × [u8 op][u64 addr]            op = device.BatchRead/BatchDrain
//	        [u8 op][u64 addr][64B line]  op = device.BatchWrite
//
// addr is a device address on an unbound connection and a tenant-local
// one on a connection bound with OpTenantAttach.
//
// Response body (status StatusOK — "the batch executed"; per-op outcomes
// are inside):
//
//	[u32 count]
//	count × [u8 status][u64 latency ps][u16 blen][blen-byte body]
//
// Per-op status/body pairs are the response-level vocabulary (statusError
// decodes both), so a busy, retired, crashed, quota or integrity outcome
// of one entry is the same typed error wherever it surfaces. A non-OK
// batch-level status means nothing in the frame executed: StatusBusy is
// the server shedding the whole batch (retransmit it), StatusTenantDenied
// an unbound frame on a tenant-only server, StatusError a malformed frame
// (both fatal).
//
// Dedup: the whole batch is one (session, seq) unit. A transport-level
// retransmit replays the identical per-op results from the dedup window;
// an op that failed retryably inside an executed batch was never applied
// and must be re-sent under a NEW sequence number (link.requeue is the
// rule both clients follow).
package devnet

import (
	"fmt"

	"soteria/internal/device"
	"soteria/internal/nvm"
)

// maxBatchOps bounds ops per batch frame: 4096 writes ≈ 300 KiB, far
// under maxFrame, and enough to amortize any per-frame cost.
const maxBatchOps = 4096

// Batch frame geometry: the encode buffer reserves the frame header up
// front so one sealed buffer is one conn.Write.
const (
	batchSeqOff   = frameHeaderSize + 9  // seq u64 inside the request header
	batchCountOff = frameHeaderSize + 17 // count u32 right after the header
	batchBodyOff  = batchCountOff + 4
)

// newBatchFrame resets buf to an unsealed OpBatch request frame for the
// session: zeroed frame-header space, request header with a placeholder
// sequence, zero count. Append entries with appendBatchOp, then
// sealBatchFrame.
func newBatchFrame(buf []byte, session uint64) []byte {
	// seq and count are placeholders, patched by sealBatchFrame.
	return putU32(newRequestFrame(buf, OpBatch, session, 0), 0)
}

// appendBatchOp appends one entry to an unsealed batch frame. op is a
// device.Batch* code; line is required for BatchWrite and ignored
// otherwise.
func appendBatchOp(buf []byte, op uint8, addr uint64, line *nvm.Line) []byte {
	buf = append(buf, op)
	buf = putU64(buf, addr)
	if op == device.BatchWrite {
		buf = append(buf, line[:]...)
	}
	return buf
}

// sealBatchFrame patches the sequence number and op count into an
// encoded batch frame and fills the leading frame header (length + CRC
// over the payload), leaving buf ready for a single Write.
func sealBatchFrame(buf []byte, seq uint64, count int) {
	bePutU64(buf[batchSeqOff:], seq)
	bePutU32(buf[batchCountOff:], uint32(count))
	sealFrame(buf)
}

// decodeBatchOps parses a batch request body into dst (reusing its
// capacity) and returns the ops. Every malformation is a *FrameError:
// the decoder accepts exactly what the encoder emits — count in
// [1, maxBatchOps], known op codes, no trailing bytes.
func decodeBatchOps(body []byte, dst []device.BatchOp) ([]device.BatchOp, error) {
	if len(body) < 4 {
		return nil, &FrameError{Reason: fmt.Sprintf("batch: short body (%d bytes)", len(body))}
	}
	count := beU32(body)
	if count == 0 || count > maxBatchOps {
		return nil, &FrameError{Reason: fmt.Sprintf("batch: count %d outside [1, %d]", count, maxBatchOps)}
	}
	body = body[4:]
	dst = dst[:0]
	for i := uint32(0); i < count; i++ {
		if len(body) < 9 {
			return nil, &FrameError{Reason: fmt.Sprintf("batch: entry %d truncated (%d bytes left)", i, len(body))}
		}
		op := body[0]
		switch op {
		case device.BatchRead, device.BatchDrain:
			dst = append(dst, device.BatchOp{Op: op, Addr: beU64(body[1:])})
			body = body[9:]
		case device.BatchWrite:
			if len(body) < 9+nvm.LineSize {
				return nil, &FrameError{Reason: fmt.Sprintf("batch: write entry %d truncated (%d bytes left)", i, len(body))}
			}
			bop := device.BatchOp{Op: op, Addr: beU64(body[1:])}
			copy(bop.Line[:], body[9:9+nvm.LineSize])
			dst = append(dst, bop)
			body = body[9+nvm.LineSize:]
		default:
			return nil, &FrameError{Reason: fmt.Sprintf("batch: entry %d has unknown op %d", i, op)}
		}
	}
	if len(body) != 0 {
		return nil, &FrameError{Reason: fmt.Sprintf("batch: %d trailing bytes after %d entries", len(body), count)}
	}
	return dst, nil
}

// appendBatchResult appends one per-op result entry to a batch response
// body under construction.
func appendBatchResult(out []byte, status uint8, latPS uint64, body []byte) []byte {
	out = append(out, status)
	out = putU64(out, latPS)
	out = append(out, byte(len(body)>>8), byte(len(body)))
	return append(out, body...)
}

// batchResults iterates a batch response body. Zero-copy: next's body
// aliases the response buffer.
type batchResults struct {
	body []byte
	n    uint32
	i    uint32
}

// parseBatchResults validates the count prefix and returns an iterator.
func parseBatchResults(body []byte) (batchResults, error) {
	if len(body) < 4 {
		return batchResults{}, &FrameError{Reason: fmt.Sprintf("batch: short response body (%d bytes)", len(body))}
	}
	n := beU32(body)
	if n == 0 || n > maxBatchOps {
		return batchResults{}, &FrameError{Reason: fmt.Sprintf("batch: response count %d outside [1, %d]", n, maxBatchOps)}
	}
	return batchResults{body: body[4:], n: n}, nil
}

// next yields the next per-op result. After the last entry, remaining
// reports whether the body had trailing garbage.
func (r *batchResults) next() (status uint8, latPS uint64, body []byte, err error) {
	if r.i >= r.n {
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("batch: response ended after %d entries, want %d", r.i, r.n)}
	}
	if len(r.body) < 11 {
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("batch: response entry %d truncated (%d bytes left)", r.i, len(r.body))}
	}
	status = r.body[0]
	latPS = beU64(r.body[1:])
	blen := int(r.body[9])<<8 | int(r.body[10])
	if len(r.body) < 11+blen {
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("batch: response entry %d body truncated (want %d, have %d)", r.i, blen, len(r.body)-11)}
	}
	body = r.body[11 : 11+blen]
	r.body = r.body[11+blen:]
	r.i++
	return status, latPS, body, nil
}

// remaining returns the unconsumed entry count (and the iterator is
// clean only if the body is fully consumed too).
func (r *batchResults) remaining() int { return int(r.n - r.i) }

// trailing reports leftover bytes after the declared entries.
func (r *batchResults) trailing() int {
	if r.i == r.n {
		return len(r.body)
	}
	return 0
}
