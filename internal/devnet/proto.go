// Package devnet puts a sharded internal/device behind a TCP socket with
// a small length-prefixed binary protocol, so load generators and other
// processes can drive a live secure-NVM device service. Two clients
// share one transport (link.go): Client is stop-and-wait, making
// in-process and over-the-wire use interchangeable; Pipe keeps a window
// of batch frames in flight. The link under both is self-healing —
// per-read deadlines, automatic reconnect with capped exponential
// backoff (replaying the tenant binding first), and go-back-N
// retransmission of every unanswered frame under one retry budget, made
// exactly-once by the (session, sequence) pair the server deduplicates.
//
// Framing: every message is [u32 big-endian payload length][u32 CRC-32C
// of the payload][payload]. The checksum makes corruption on the wire a
// typed *FrameError instead of silent protocol desync — a corrupted
// frame poisons only its connection, and the client retries over a
// fresh one. Both ends read frames through a buffer and write when they
// would wait: the frames they hold leave in one Write before a read that
// would block (see DESIGN.md "Burst I/O").
//
// A request payload is [u8 op][u64 session][u64 seq][op-specific body].
// A non-zero session enrolls the request in the server's dedup window:
// a retransmitted (session, seq) whose original already executed and
// succeeded is answered from the cached response without re-executing,
// which is what makes blind client retries of writes safe. Session 0
// opts out (stateless tooling).
//
// A response payload is [u8 status][u64 seq echo][u64 latency in
// simulated picoseconds][status/op-specific body]. The echoed sequence
// lets the client reject a response that does not answer the request it
// has in flight. All integers are big-endian.
//
// There is one wire encoding of a data op: an entry of an OpBatch frame
// (batch.go). A stop-and-wait read, write or drain is a one-entry batch;
// a tenant's is the same entry sent over a connection bound to the tenant
// with OpTenantAttach, its address tenant-local. Request bodies:
//
//	 1 OpPing          —
//	 2 OpInfo          —                       response: device.Info JSON
//	 9 OpSnapshot      —                       response: telemetry snapshot JSON
//	11 OpTenantAttach  [u32 tenant][u64 token]
//	14 OpTenantCreate  [u32 tenant][u64 lines][u32 quota]  response: [u64 token]
//	15 OpTenantRotate  [u32 tenant]
//	16 OpTenantStep    [u32 tenant][u32 max]   response: [u8 done][u32 rotated][u64 cursor]
//	20 OpBatch         see batch.go
//
// Opcodes 3–8, 10, 12, 13 and 17–19 are retired: reserved, never reused,
// and answered "unknown op". 3, 4, 5, 12 and 13 were the single-op data
// frames; 6, 7, 8 and 10 (flush, crash, recover, health) and 17, 18, 19
// (tenant info, list, metrics) were operator and introspection ops that
// no client sent. Readiness and tenant listing and metrics are served
// over HTTP by cmd/soteria-serve.
//
// Error statuses carry typed bodies so the client can reconstruct the
// device's error surface exactly (see StatusBusy etc.; wireerr.go is the
// one codec for a stand-alone response and a batch entry alike).
package devnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"
)

// Protocol ops. The values are the wire protocol; the gaps are the
// retired opcodes listed in the package comment.
const (
	OpPing     uint8 = 1
	OpInfo     uint8 = 2
	OpSnapshot uint8 = 9

	// Tenant plane (see tenantframe.go for the body codec). OpTenantAttach
	// binds the connection to a tenant after checking its token; every
	// batch frame that follows on the connection runs in that tenant's
	// space. The binding is per-connection, so attach bypasses the dedup
	// window and the client link replays it after every reconnect. The
	// rest are operator-plane ops and need no binding.
	OpTenantAttach uint8 = 11
	OpTenantCreate uint8 = 14
	OpTenantRotate uint8 = 15
	OpTenantStep   uint8 = 16

	// OpBatch is the data plane: one frame carries up to maxBatchOps
	// read/write/drain operations, executed by the server as one unit (see
	// batch.go for the body codec and DESIGN.md "Client link" for the
	// pipelining and dedup rules). The whole batch is one (session, seq)
	// dedup unit.
	OpBatch uint8 = 20
)

// Response statuses.
const (
	// StatusOK: body is op-specific.
	StatusOK uint8 = iota
	// StatusBusy: body is [i32 shard][u32 pending][u64 retry-after ns].
	// Shard -1 means the server itself shed the request (max-in-flight
	// cap), -2 the tenant fair-share gate.
	StatusBusy
	// StatusCrashed: the device is down and awaits recovery. Empty body.
	StatusCrashed
	// StatusClosed: the device is shut down. Empty body.
	StatusClosed
	// StatusPowerLoss: body is [i32 shard][u64 boundary].
	StatusPowerLoss
	// StatusRetired: the request was queued when power was cut. Empty body.
	StatusRetired
	// StatusError: body is a UTF-8 error string.
	StatusError
	// StatusQuota: the tenant's hard per-window operation budget is
	// exhausted. Body is [u32 tenant][u32 used][u32 budget]. NOT
	// retryable — distinct from StatusBusy by design (see ClassQuota).
	StatusQuota
	// StatusTenantDenied: the session is not (or cannot be) bound to the
	// tenant it addressed. Body is [u32 tenant].
	StatusTenantDenied
	// StatusTenantIntegrity: the line failed tenant-layer MAC
	// verification. Body is [u32 tenant][u64 line].
	StatusTenantIntegrity
)

// maxFrame bounds a frame payload; snapshots of big registries are the
// largest legitimate message, and 16 MiB is far beyond any of them.
const maxFrame = 16 << 20

// frameChunk bounds how much readFrame allocates ahead of bytes actually
// received, so a lying length header cannot make the receiver allocate
// maxFrame from a 8-byte prefix. It also bounds the responses a server
// holds for one burst write.
const frameChunk = 64 << 10

// readBufSize is the read buffer at each end of a connection: one socket
// read takes every frame that has arrived, and parsing the ones already
// buffered costs no syscall.
const readBufSize = 32 << 10

// Header sizes: frame = [u32 len][u32 crc]; request payload starts
// [u8 op][u64 session][u64 seq]; response payload starts
// [u8 status][u64 seq][u64 latency].
const (
	frameHeaderSize = 8
	reqHeaderSize   = 17
	respHeaderSize  = 17
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends payload to dst as one checksummed length-prefixed
// frame, so a burst of frames leaves in one Write.
func appendFrame(dst, payload []byte) []byte {
	dst = putU32(dst, uint32(len(payload)))
	dst = putU32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// readFrame receives one frame into a fresh buffer.
func readFrame(r io.Reader) ([]byte, error) {
	var scratch []byte
	return readFrameInto(r, &scratch)
}

// readFrameInto receives and verifies one frame, reusing *scratch's
// capacity across calls so a steady-state receive loop allocates nothing
// once the buffer has grown to its working-set size. The buffer grows in
// bounded chunks as bytes actually arrive, so a header claiming maxFrame
// cannot make the receiver allocate maxFrame before the stream has to
// deliver. The returned payload aliases *scratch and is valid until the
// next call.
func readFrameInto(r io.Reader, scratch *[]byte) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	want := binary.BigEndian.Uint32(hdr[4:])
	if n > maxFrame {
		return nil, &FrameError{Reason: fmt.Sprintf("frame of %d bytes exceeds the %d-byte cap", n, maxFrame)}
	}
	payload := (*scratch)[:0]
	for len(payload) < int(n) {
		chunk := min(int(n)-len(payload), frameChunk)
		off := len(payload)
		if cap(payload) >= off+chunk {
			payload = payload[:off+chunk]
		} else {
			payload = append(payload, make([]byte, chunk)...)
		}
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			*scratch = payload[:0]
			return nil, err
		}
	}
	*scratch = payload
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &FrameError{Reason: fmt.Sprintf("payload checksum %08x does not match header %08x", got, want)}
	}
	return payload, nil
}

// frameBuffered reports whether br already holds a whole frame, so
// reading it needs no socket read. It is the "would wait" test of the
// burst rule both ends follow: write what is held before a read that
// would block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < frameHeaderSize {
		return false
	}
	hdr, _ := br.Peek(frameHeaderSize)
	return uint64(n-frameHeaderSize) >= uint64(beU32(hdr))
}

// deadlineConn arms a fresh deadline before every Read and Write that
// reaches the socket: read bounds one socket read, write one burst write.
// It sits under a bufio.Reader, so frames already buffered cost neither a
// syscall nor a deadline; the owner sets read for the state of the stream.
type deadlineConn struct {
	net.Conn
	read, write time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.Conn.SetReadDeadline(time.Now().Add(c.read))
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	c.Conn.SetWriteDeadline(time.Now().Add(c.write))
	return c.Conn.Write(p)
}

// wireRequest is one parsed request payload.
type wireRequest struct {
	op      uint8
	session uint64
	seq     uint64
	body    []byte
}

// newRequestFrame resets buf to an unsealed request frame: zeroed
// frame-header space, then the request header. Append the body, then
// sealFrame — the whole buffer goes out in one Write.
func newRequestFrame(buf []byte, op uint8, session, seq uint64) []byte {
	var zero [frameHeaderSize]byte
	buf = append(buf[:0], zero[:]...)
	buf = append(buf, op)
	buf = putU64(buf, session)
	return putU64(buf, seq)
}

// encodeRequest builds the same request header unframed, with room for
// body bytes; appendFrame frames it.
func encodeRequest(op uint8, session, seq uint64, bodyCap int) []byte {
	buf := make([]byte, 0, frameHeaderSize+reqHeaderSize+bodyCap)
	return newRequestFrame(buf, op, session, seq)[frameHeaderSize:]
}

// sealFrame fills buf's leading frame-header space (length + CRC) from
// its payload, buf[frameHeaderSize:].
func sealFrame(buf []byte) {
	payload := buf[frameHeaderSize:]
	bePutU32(buf, uint32(len(payload)))
	bePutU32(buf[4:], crc32.Checksum(payload, castagnoli))
}

// parseRequest splits a request payload into its header and body.
func parseRequest(payload []byte) (wireRequest, error) {
	if len(payload) < reqHeaderSize {
		return wireRequest{}, &FrameError{Reason: fmt.Sprintf("short request (%d bytes, want >= %d)", len(payload), reqHeaderSize)}
	}
	return wireRequest{
		op:      payload[0],
		session: binary.BigEndian.Uint64(payload[1:9]),
		seq:     binary.BigEndian.Uint64(payload[9:17]),
		body:    payload[17:],
	}, nil
}

// wireResponse is one parsed response payload.
type wireResponse struct {
	status uint8
	seq    uint64
	latPS  uint64
	body   []byte
}

// parseResponse splits a response payload into its header and body.
func parseResponse(payload []byte) (wireResponse, error) {
	if len(payload) < respHeaderSize {
		return wireResponse{}, &FrameError{Reason: fmt.Sprintf("short response (%d bytes, want >= %d)", len(payload), respHeaderSize)}
	}
	return wireResponse{
		status: payload[0],
		seq:    binary.BigEndian.Uint64(payload[1:9]),
		latPS:  binary.BigEndian.Uint64(payload[9:17]),
		body:   payload[17:],
	}, nil
}

func putU64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

func putU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func beU32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

func beU64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

func bePutU32(b []byte, v uint32) { binary.BigEndian.PutUint32(b, v) }

func bePutU64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }
