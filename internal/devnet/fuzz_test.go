package devnet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/tenant"
)

// frameBytes renders a valid frame for the seed corpus.
func frameBytes(payload []byte) []byte { return appendFrame(nil, payload) }

// FuzzDecodeFrame throws arbitrary byte streams at the full inbound
// decode path — framing, request parsing, response parsing. The
// invariants: no panic, no over-allocation from a lying length header
// (readFrameInto grows with the bytes that actually arrive), and a
// frame that decodes must re-encode to the same payload.
func FuzzDecodeFrame(f *testing.F) {
	// Valid frames: ping request, one-entry write batch, OK response,
	// error response.
	f.Add(frameBytes(encodeRequest(OpPing, 1, 1, 0)))
	f.Add(batchFuzzFrame(42, 9, 1))
	f.Add(frameBytes(respOK(9, 0, []byte("body"))))
	f.Add(frameBytes(respErr(3, bytes.ErrTooLarge)))
	// Truncated frame: header promises more than the stream holds.
	f.Add(batchFuzzFrame(7, 2, 1)[:10])
	// Lying length header: claims 1 GiB.
	f.Add([]byte{0x40, 0x00, 0x00, 0x00, 0, 0, 0, 0})
	// Bad checksum.
	f.Add(func() []byte {
		b := frameBytes(encodeRequest(OpPing, 1, 1, 0))
		b[len(b)-1] ^= 0xff
		return b
	}())
	// Empty and tiny inputs.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame that decoded must survive a round trip bit-for-bit.
		reread, err := readFrame(bytes.NewReader(appendFrame(nil, payload)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(payload, reread) {
			t.Fatal("frame payload not stable across re-encode")
		}
		// Both interpretations of the payload must be panic-free.
		if req, err := parseRequest(payload); err == nil {
			_ = req.op
			_ = req.body
		}
		if resp, err := parseResponse(payload); err == nil {
			_ = resp.status
			_ = resp.body
		}
	})
}

// countingReader counts the reads that reach the stream under a buffer.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// FuzzFrameStream feeds a stream of concatenated frames through the
// buffered reader both ends of a connection read with, under arbitrary
// chunking of the stream below it and buffers smaller and larger than the
// frames. Whatever the chunking, it must yield exactly the frames a
// whole-stream decode yields and stop with the same error: the end of the
// stream, a truncation, or the same *FrameError reject. And frameBuffered
// — the burst rule's "would wait" test — may claim a frame only if
// reading it then reaches no further into the stream.
func FuzzFrameStream(f *testing.F) {
	ping := frameBytes(encodeRequest(OpPing, 1, 1, 0))
	batch := batchFuzzFrame(42, 2, 32)
	resp := frameBytes(respOK(3, 0, []byte("body")))
	stream := append(append(append([]byte{}, ping...), batch...), resp...)
	f.Add(stream, uint8(0))
	f.Add(stream, uint8(1))
	f.Add(stream, uint8(6))
	f.Add(stream[:len(stream)-3], uint8(2))
	corrupt := append([]byte{}, stream...)
	corrupt[len(ping)+frameHeaderSize+5] ^= 0x10
	f.Add(corrupt, uint8(5))
	f.Add(append(append([]byte{}, ping...), 0x40, 0, 0, 0, 0, 0, 0, 0), uint8(9))
	f.Add([]byte{}, uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, chunking uint8) {
		var want [][]byte
		whole := bytes.NewReader(data)
		var wantErr error
		for wantErr == nil {
			payload, err := readFrame(whole)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, payload)
		}

		var under io.Reader = bytes.NewReader(data)
		switch chunking % 3 {
		case 1:
			under = iotest.OneByteReader(under)
		case 2:
			under = iotest.HalfReader(under)
		}
		cr := &countingReader{r: under}
		size := [...]int{16, 64, 1024, readBufSize}[chunking/3%4]
		br := bufio.NewReaderSize(cr, size)
		var scratch []byte
		for i := 0; ; i++ {
			ready := frameBuffered(br)
			before := cr.reads
			payload, err := readFrameInto(br, &scratch)
			if ready && cr.reads != before {
				t.Fatalf("frame %d was claimed buffered, but reading it took %d more reads", i, cr.reads-before)
			}
			if err != nil {
				if i != len(want) || err.Error() != wantErr.Error() {
					t.Fatalf("buffered decode stopped at frame %d with %v, whole-stream decode at %d with %v", i, err, len(want), wantErr)
				}
				var fe *FrameError
				if errors.As(err, &fe) != errors.As(wantErr, &fe) {
					t.Fatalf("error %v and %v differ in kind", err, wantErr)
				}
				return
			}
			if i >= len(want) || !bytes.Equal(payload, want[i]) {
				t.Fatalf("frame %d differs from the whole-stream decode", i)
			}
		}
	})
}

// FuzzParseRequest hits the request parser directly, bypassing framing,
// so short and malformed payloads are explored densely.
func FuzzParseRequest(f *testing.F) {
	f.Add(encodeRequest(OpPing, 1, 1, 0))
	f.Add(batchFuzzFrame(2, 2, 1)[frameHeaderSize:])
	f.Add([]byte{})
	f.Add(make([]byte, reqHeaderSize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := parseRequest(data)
		if err != nil {
			return
		}
		if len(req.body) > len(data) {
			t.Fatal("parsed body longer than input")
		}
	})
}

// FuzzParseResponse mirrors FuzzParseRequest for the client side.
func FuzzParseResponse(f *testing.F) {
	f.Add(respOK(1, 0, nil))
	f.Add(respErr(2, bytes.ErrTooLarge))
	f.Add([]byte{})
	f.Add(make([]byte, respHeaderSize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := parseResponse(data)
		if err != nil {
			return
		}
		if len(resp.body) > len(data) {
			t.Fatal("parsed body longer than input")
		}
		// statusError must map any status/body combination without
		// panicking — this is what a corrupted-but-CRC-colliding response
		// would hit.
		_ = statusError(resp.status, resp.body)
	})
}

// FuzzTenantFrame throws arbitrary (op, body) pairs at the tenant-plane
// body codec — the single parse point for the attach, rotate and step
// ops the server accepts. The invariants: never panic, reject with a typed
// *FrameError on any length mismatch or non-tenant op (the retired tenant
// opcodes 12–14 and 17–19 included), and any accepted body must re-encode
// byte-identically (no silently ignored trailing bytes, no lossy fields).
func FuzzTenantFrame(f *testing.F) {
	seed := []TenantFrame{
		{Op: OpTenantAttach, Tenant: 1, Token: 0xdeadbeefcafef00d},
		{Op: OpTenantRotate, Tenant: 5},
		{Op: OpTenantStep, Tenant: 6, Max: 32},
	}
	for _, s := range seed {
		f.Add(s.Op, s.Encode())
	}
	// Off-by-one lengths, truncations, non-tenant ops, trailing garbage.
	f.Add(OpTenantAttach, []byte{})
	f.Add(OpTenantStep, make([]byte, 13))
	f.Add(OpTenantRotate, make([]byte, 5))
	// The retired tenant opcodes (read, write, create, info, list,
	// metrics) with the bodies they used to take: not tenant ops any more.
	f.Add(uint8(12), make([]byte, 12))
	f.Add(uint8(13), make([]byte, 12+64))
	f.Add(uint8(14), make([]byte, 16))
	f.Add(uint8(14), make([]byte, 12))
	f.Add(uint8(17), make([]byte, 4))
	f.Add(uint8(18), []byte{})
	f.Add(uint8(19), make([]byte, 4))
	f.Add(OpPing, []byte{1, 2, 3})
	f.Add(uint8(255), []byte{})

	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		frame, err := ParseTenantFrame(op, body)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("reject is not a *FrameError: %v", err)
			}
			return
		}
		if op < OpTenantAttach || op > OpTenantStep || op >= 12 && op <= 14 {
			t.Fatalf("op %d accepted as a tenant op", op)
		}
		re := frame.Encode()
		if !bytes.Equal(re, body) {
			t.Fatalf("accepted body is not stable: in %x, out %x", body, re)
		}
		back, err := ParseTenantFrame(op, re)
		if err != nil {
			t.Fatalf("re-parse of encoded frame failed: %v", err)
		}
		if back != frame {
			t.Fatal("frame not stable across re-encode")
		}
	})
}

// fuzzTenantServer builds a tenant-only server with one provisioned
// tenant whose extent covers the seed corpus's addresses, and returns the
// binding a connection attached to it would hold.
func fuzzTenantServer(f *testing.F) (*Server, uint32) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("fuzz-tenant-device-key"),
		Shards: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { dev.Close() })
	svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte("fuzz-tenant-master")})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := svc.Provision(1, 64, 0); err != nil {
		f.Fatal(err)
	}
	return NewServerWith(nil, ServerOptions{Tenants: svc}), 1
}

// checkBoundDispatch pushes one batch request payload through dispatch as
// a connection bound to a tenant would, and checks the response against
// what the decoder said about the body. The session is zeroed first so
// the frame executes instead of replaying an earlier input's response.
func checkBoundDispatch(t *testing.T, srv *Server, bound uint32, payload []byte, req wireRequest, ops []device.BatchOp, derr error) {
	payload = append([]byte(nil), payload...)
	bePutU64(payload[1:], 0)
	var bs batchScratch
	resp, err := parseResponse(srv.dispatch(payload, &bound, &bs))
	if err != nil {
		t.Fatalf("bound dispatch answered garbage: %v", err)
	}
	if resp.seq != req.seq {
		t.Fatalf("bound dispatch echoed seq %d, want %d", resp.seq, req.seq)
	}
	if derr != nil {
		if resp.status != StatusError {
			t.Fatalf("rejected batch body answered with status %d", resp.status)
		}
		return
	}
	if resp.status != StatusOK {
		t.Fatalf("accepted batch answered with status %d (%s)", resp.status, resp.body)
	}
	sent := &frame{}
	for _, op := range ops {
		sent.ops = append(sent.ops, pendOp{op: op.Op})
	}
	if err := validateBatchResponse(sent, resp.body); err != nil {
		t.Fatalf("bound dispatch of %d ops: %v", len(ops), err)
	}
}

// batchFuzzFrame builds a loadgen-shaped batch frame for the fuzz seed
// corpus: the generator's 3:1 write:read mix with periodic drains.
func batchFuzzFrame(session, seq uint64, count int) []byte {
	buf := newBatchFrame(nil, session)
	for i := 0; i < count; i++ {
		addr := uint64(i) * 64
		switch {
		case i%4 == 3:
			buf = appendBatchOp(buf, device.BatchRead, addr, nil)
		case i%16 == 8:
			buf = appendBatchOp(buf, device.BatchDrain, addr, nil)
		default:
			line := batchTestLine(addr, byte(seq))
			buf = appendBatchOp(buf, device.BatchWrite, addr, &line)
		}
	}
	sealBatchFrame(buf, seq, count)
	return buf
}

// FuzzDecodeBatchFrame drives arbitrary byte streams through the full
// inbound data path — framing, request parsing, batch-body decoding,
// and dispatch on a tenant-bound connection — and the response-side
// result iterator. The invariants: no panic; every rejection of a framed
// batch body is a typed *FrameError; any accepted batch body must
// re-encode byte-identically (the decoder accepts exactly the encoder's
// language, nothing more); and a bound dispatch answers an accepted batch
// with one result per entry and a rejected one with StatusError.
func FuzzDecodeBatchFrame(f *testing.F) {
	srv, bound := fuzzTenantServer(f)

	// Well-formed frames at loadgen-typical batch sizes.
	f.Add(batchFuzzFrame(1, 1, 1))
	f.Add(batchFuzzFrame(7, 3, 8))
	f.Add(batchFuzzFrame(42, 9, 64))
	f.Add(batchFuzzFrame(0, 2, 17))
	// A batch response frame exercises the result iterator side.
	f.Add(func() []byte {
		line := batchTestLine(64, 1)
		body := putU32(nil, 3)
		body = appendBatchResult(body, StatusOK, 1234, line[:])
		body = appendBatchResult(body, StatusOK, 77, nil)
		body = appendBatchErr(body, &device.BusyError{Shard: 1, Pending: 3})
		resp := append(respOK(5, 0, nil), body...)
		return frameBytes(resp)
	}())
	// Mutilated variants: truncated mid-entry, corrupted count, bad op.
	f.Add(batchFuzzFrame(1, 1, 4)[:frameHeaderSize+reqHeaderSize+7])
	f.Add(func() []byte {
		b := batchFuzzFrame(1, 1, 4)
		b[frameHeaderSize+reqHeaderSize+3] = 0xff // count low byte
		return b
	}())
	f.Add(func() []byte {
		b := batchFuzzFrame(1, 1, 4)
		b[batchBodyOff] = 0x99 // first entry's op code
		return b
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if req, err := parseRequest(payload); err == nil && req.op == OpBatch {
			ops, derr := decodeBatchOps(req.body, nil)
			checkBoundDispatch(t, srv, bound, payload, req, ops, derr)
			if derr != nil {
				var fe *FrameError
				if !errors.As(derr, &fe) {
					t.Fatalf("batch rejection is %T (%v), want *FrameError", derr, derr)
				}
				return
			}
			// Accepted: re-encoding the decoded ops must reproduce the
			// original frame bit for bit (header, seq, count, entries).
			re := newBatchFrame(nil, req.session)
			for i := range ops {
				re = appendBatchOp(re, ops[i].Op, ops[i].Addr, &ops[i].Line)
			}
			sealBatchFrame(re, req.seq, len(ops))
			orig := data[:frameHeaderSize+len(payload)]
			if !bytes.Equal(re, orig) {
				t.Fatal("accepted batch frame did not round-trip byte-identically")
			}
		}
		// Response-side: the result iterator must consume any StatusOK
		// body without panicking, stopping cleanly at the first defect.
		if resp, err := parseResponse(payload); err == nil && resp.status == StatusOK {
			if it, err := parseBatchResults(resp.body); err == nil {
				for {
					if _, _, _, err := it.next(); err != nil {
						break
					}
					if it.remaining() == 0 {
						break
					}
				}
			}
		}
	})
}
