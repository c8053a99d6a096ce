// Package ctrenc implements the confidentiality layer of the secure memory
// controller: AES-128 counter-mode encryption with VAULT-style 64-ary split
// counters, plus the keyed 64-bit MACs used throughout the integrity
// machinery (data MACs, ToC node MACs, shadow-entry MACs).
//
// Counter-mode encryption generates a One-Time Pad from an Initialization
// Vector containing the block address and its counter (Fig 1 of the paper);
// the pad is XORed with the plaintext. Because the pad depends only on
// (address, counter), pad generation overlaps the memory fetch, hiding
// decryption latency — the timing model in internal/memctrl exploits
// exactly that property.
package ctrenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"math/bits"

	"soteria/internal/config"
	"soteria/internal/telemetry"
)

// BlockSize is the granularity of encryption: one 64-byte memory line.
const BlockSize = config.BlockSize

// MinorBits is the width of each minor counter in a split-counter block
// (VAULT-style 64-ary split counters: 64 minors of 6 bits).
const MinorBits = 6

// MinorMax is the largest value a minor counter can hold before the page
// must be re-encrypted under an incremented major counter.
const MinorMax = (1 << MinorBits) - 1

// CountersPerBlock is the number of data blocks covered by one counter
// block (Table 3: 64-way split counter).
const CountersPerBlock = 64

// Engine performs counter-mode encryption and MAC computation. It is
// deterministic given its keys, which models the on-chip AES engine of the
// memory controller. The zero value is unusable; construct with NewEngine.
//
// An Engine is single-goroutine, matching the memory controller it models
// (each controller — and each device shard — owns its own Engine): the
// scratch buffers below let the hot paths run without heap allocation, at
// the price of not being safe for concurrent use.
type Engine struct {
	aead   cipher.Block // AES-128 for OTP generation without AES-NI
	rk     [176]byte    // the same key's round keys, for the four-lane pad
	macKey [32]byte     // key for MAC derivation

	// k0/k1 are the 128-bit hot-path PRF subkeys and nh the NH hash key
	// of MAC, all derived from the MAC key through the midstate-cached
	// keyed digest below.
	k0, k1 uint64
	nh     [10]uint64

	// mid is the serialized SHA-256 state after absorbing the MAC key —
	// computed once at NewEngine. keyedSum restores it into the scratch
	// digest instead of rehashing the key, so a keyed digest costs no
	// sha256.New and no key compression.
	mid     []byte
	scratch sha256State
	sum     [sha256.Size]byte

	// pad backs the OTP generator. cipher.Block.Encrypt is an interface
	// call, so any stack buffer passed through it is forced to escape;
	// building the pad in an Engine-owned array keeps Encrypt / Decrypt
	// allocation-free on either path.
	pad [BlockSize]byte

	tel telemetryHooks
}

// sha256State is the stdlib sha256 digest viewed through the interfaces
// the midstate cache needs: Write/Sum plus the encoding.BinaryMarshaler /
// BinaryUnmarshaler support crypto/sha256 documents for its digests.
type sha256State interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// telemetryHooks holds the engine's metric handles; nil handles (no
// registry attached) are no-ops. OTP generations count one per
// encrypted/decrypted line (CTR mode is an involution, so the pad count
// is the line-crypto op count); MACs are tracked per domain.
type telemetryHooks struct {
	otps *telemetry.Counter
	macs [DomainTenant + 1]*telemetry.Counter
}

// AttachTelemetry registers the engine's metrics on r (nil detaches).
func (e *Engine) AttachTelemetry(r *telemetry.Registry) {
	if r == nil {
		e.tel = telemetryHooks{}
		return
	}
	e.tel.otps = r.Counter("ctrenc_otp_total")
	for d, name := range map[MACDomain]string{
		DomainData:       "data",
		DomainCounter:    "counter",
		DomainNode:       "node",
		DomainShadow:     "shadow",
		DomainShadowTree: "shadow_tree",
		DomainTenant:     "tenant",
	} {
		e.tel.macs[d] = r.Counter("ctrenc_mac_" + name + "_total")
	}
}

// NewEngine derives the encryption and MAC keys from the given root key
// (any length; it is hashed).
func NewEngine(rootKey []byte) (*Engine, error) {
	h := sha256.Sum256(append([]byte("soteria-enc-key:"), rootKey...))
	blk, err := aes.NewCipher(h[:16])
	if err != nil {
		return nil, fmt.Errorf("ctrenc: %w", err)
	}
	e := &Engine{aead: blk, rk: expandKey128((*[16]byte)(h[:16]))}
	e.macKey = sha256.Sum256(append([]byte("soteria-mac-key:"), rootKey...))

	// Hash the MAC key exactly once and snapshot the digest midstate; every
	// keyed digest from here on restores the snapshot instead of re-keying.
	mh := sha256.New().(sha256State)
	if _, err := mh.Write(e.macKey[:]); err != nil {
		return nil, fmt.Errorf("ctrenc: keying digest: %w", err)
	}
	if e.mid, err = mh.MarshalBinary(); err != nil {
		return nil, fmt.Errorf("ctrenc: snapshot digest midstate: %w", err)
	}
	e.scratch = sha256.New().(sha256State)

	// The per-line 64-bit MAC runs NH into a SipHash-1-3 PRF whose keys
	// come out of the keyed digest, so the whole MAC hierarchy is still
	// rooted in the SHA-256-derived MAC key.
	sub := e.keyedSum([]byte("soteria-mac-subkeys"))
	e.k0 = binary.LittleEndian.Uint64(sub[0:8])
	e.k1 = binary.LittleEndian.Uint64(sub[8:16])
	for i := range e.nh {
		if i%4 == 0 {
			sub = e.keyedSum([]byte("soteria-mac-nh"), []byte{byte(i / 4)})
		}
		e.nh[i] = binary.LittleEndian.Uint64(sub[i%4*8:])
	}
	return e, nil
}

// keyedSum computes SHA-256(macKey || parts...) without allocating: the
// key's compression is replayed from the midstate snapshot and the sum
// lands in the engine's fixed buffer. The returned slice aliases e.sum and
// is only valid until the next keyedSum.
func (e *Engine) keyedSum(parts ...[]byte) []byte {
	if err := e.scratch.UnmarshalBinary(e.mid); err != nil {
		panic(fmt.Sprintf("ctrenc: restore digest midstate: %v", err))
	}
	for _, p := range parts {
		e.scratch.Write(p)
	}
	return e.scratch.Sum(e.sum[:0])
}

// DeriveSubkey derives a 32-byte subkey bound to (label, id, epoch) from
// the engine's MAC key — the root of per-tenant key domains: a tenant's
// data engine is a full Engine constructed from a subkey only the holder
// of the master key can derive, and rotating a tenant's keys is just
// bumping its epoch. The derivation runs through the midstate-cached
// keyed digest (one SHA-256 finalization, no allocation beyond the
// returned array) and is framed unambiguously: a fixed prefix, the
// length-prefixed label, then id and epoch as fixed-width words.
func (e *Engine) DeriveSubkey(label string, id, epoch uint64) [32]byte {
	var frame [17]byte
	frame[0] = byte(len(label))
	binary.LittleEndian.PutUint64(frame[1:9], id)
	binary.LittleEndian.PutUint64(frame[9:17], epoch)
	var out [32]byte
	copy(out[:], e.keyedSum([]byte("soteria-subkey:"), frame[:1], []byte(label), frame[1:]))
	return out
}

// MustNewEngine is NewEngine for static keys; it panics on error.
func MustNewEngine(rootKey []byte) *Engine {
	e, err := NewEngine(rootKey)
	if err != nil {
		panic(err)
	}
	return e
}

// otp generates the 64-byte one-time pad for (addr, counter) into e.pad:
// four AES blocks over an IV of (address, counter, block index), laid out
// as padBlockCipher describes. With AES-NI one kernel call builds the four
// blocks and runs them side by side; without it they go through
// cipher.Block one at a time.
func (e *Engine) otp(addr, counter uint64) {
	e.tel.otps.Inc()
	if !hasAESNI {
		padBlockCipher(e.aead, &e.pad, addr, counter)
		return
	}
	encryptPad(&e.rk, &e.pad, addr, counter)
}

// Encrypt produces the ciphertext of one line under (addr, counter).
// Counter-mode is an involution: Decrypt is the same operation.
func (e *Engine) Encrypt(addr, counter uint64, plaintext *[BlockSize]byte) [BlockSize]byte {
	e.otp(addr, counter)
	var ct [BlockSize]byte
	subtle.XORBytes(ct[:], plaintext[:], e.pad[:])
	return ct
}

// Decrypt recovers the plaintext of one line; identical to Encrypt because
// CTR mode XORs the same pad.
func (e *Engine) Decrypt(addr, counter uint64, ciphertext *[BlockSize]byte) [BlockSize]byte {
	return e.Encrypt(addr, counter, ciphertext)
}

// MAC domains separate the uses of the 64-bit MAC so a value from one
// context can never be replayed into another.
type MACDomain byte

const (
	// DomainData authenticates (ciphertext, address, counter) of a data
	// block.
	DomainData MACDomain = iota + 1
	// DomainCounter authenticates a leaf (encryption-counter) block
	// under its parent ToC counter.
	DomainCounter
	// DomainNode authenticates an intermediate ToC node under its
	// parent counter.
	DomainNode
	// DomainShadow authenticates an Anubis shadow entry.
	DomainShadow
	// DomainShadowTree authenticates nodes of the eager BMT protecting
	// the shadow region.
	DomainShadowTree
	// DomainTenant authenticates a tenant-layer data line (ciphertext
	// bound to tenant-local line index and write counter) under that
	// tenant's derived key domain.
	DomainTenant
)

// MAC computes the keyed 64-bit MAC of msg (at most one 64-byte line; a
// longer message panics) within a domain. tweak1/tweak2 carry the binding
// context (address or level/index plus the protecting parent counter),
// which is what defeats cross-location replay.
//
// The construction is hash-then-PRF, as in UMAC/VMAC. msg is zero-padded
// to eight little-endian words m0..m7 and compressed with one NH pass,
//
//	H = Σ_{i<4} (m_{2i}+K_{2i})·(m_{2i+1}+K_{2i+1}) + (tweak1+K8)·(tweak2+K9)  mod 2^128
//
// (word sums mod 2^64): five independent 64×64→128-bit products. NH is
// 2^-64-almost-universal on equal-length inputs, so H of two distinct
// (msg, tweak1, tweak2) of one length collide with probability at most
// 2^-64 over the key. Then SipHash-1-3 under k0/k1 absorbs lo(H), hi(H)
// and len|domain<<56: a PRF over an almost-universal hash is a MAC, and
// the length and domain word separates lengths (and so the zero padding)
// and domains. That is 3 compression and 3 finalisation rounds, 6 serial
// rounds in all. All keys come from the SHA-256-derived MAC key through
// the midstate-cached keyed digest in NewEngine. MAC values never leave an
// engine's key lifetime — they are recomputed from the key on every boot
// and never compared across keys — so the construction may change without
// moving any observable result. See DESIGN.md "Midstate-keyed MAC engine".
func (e *Engine) MAC(domain MACDomain, tweak1, tweak2 uint64, msg []byte) uint64 {
	if int(domain) < len(e.tel.macs) {
		e.tel.macs[domain].Inc()
	}
	// Every caller passes a whole line or its first 56 bytes; both are
	// read in place, and only other lengths are copied to be padded.
	le := binary.LittleEndian
	var (
		b      *[BlockSize - 8]byte
		m7     uint64
		padded [BlockSize]byte
	)
	switch len(msg) {
	case BlockSize:
		m7 = le.Uint64(msg[BlockSize-8:])
		fallthrough
	case BlockSize - 8:
		b = (*[BlockSize - 8]byte)(msg)
	default:
		if len(msg) > BlockSize {
			panic(fmt.Sprintf("ctrenc: MAC message of %d bytes exceeds one %d-byte line", len(msg), BlockSize))
		}
		copy(padded[:], msg)
		b = (*[BlockSize - 8]byte)(padded[:])
		m7 = le.Uint64(padded[BlockSize-8:])
	}

	// The five products are independent; only the 128-bit sum chains.
	k := &e.nh
	h0, l0 := bits.Mul64(le.Uint64(b[0:])+k[0], le.Uint64(b[8:])+k[1])
	h1, l1 := bits.Mul64(le.Uint64(b[16:])+k[2], le.Uint64(b[24:])+k[3])
	h2, l2 := bits.Mul64(le.Uint64(b[32:])+k[4], le.Uint64(b[40:])+k[5])
	h3, l3 := bits.Mul64(le.Uint64(b[48:])+k[6], m7+k[7])
	h4, l4 := bits.Mul64(tweak1+k[8], tweak2+k[9])
	h0, l0 = add128(h0, l0, h1, l1)
	h2, l2 = add128(h2, l2, h3, l3)
	h0, l0 = add128(h0, l0, h4, l4)
	hi, lo := add128(h0, l0, h2, l2)

	v0 := e.k0 ^ 0x736f6d6570736575
	v1 := e.k1 ^ 0x646f72616e646f6d
	v2 := e.k0 ^ 0x6c7967656e657261
	v3 := e.k1 ^ 0x7465646279746573
	fin := uint64(len(msg)) | uint64(domain)<<56
	v3 ^= lo
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= lo
	v3 ^= hi
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= hi
	v3 ^= fin
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= fin

	v2 ^= 0xff
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	return v0 ^ v1 ^ v2 ^ v3
}

// add128 returns (ah:al + bh:bl) mod 2^128.
func add128(ah, al, bh, bl uint64) (hi, lo uint64) {
	lo, c := bits.Add64(al, bl, 0)
	hi, _ = bits.Add64(ah, bh, c)
	return hi, lo
}

// sipRound is one SipHash ARX round. Small enough for the compiler to
// inline at every absorption site.
func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = bits.RotateLeft64(v1, 13)
	v1 ^= v0
	v0 = bits.RotateLeft64(v0, 32)
	v2 += v3
	v3 = bits.RotateLeft64(v3, 16)
	v3 ^= v2
	v0 += v3
	v3 = bits.RotateLeft64(v3, 21)
	v3 ^= v0
	v2 += v1
	v1 = bits.RotateLeft64(v1, 17)
	v1 ^= v2
	v2 = bits.RotateLeft64(v2, 32)
	return v0, v1, v2, v3
}

// DataMAC authenticates one data block: MAC over the ciphertext bound to
// its address and encryption counter (Yan et al. style, as adopted by the
// paper).
func (e *Engine) DataMAC(addr, counter uint64, ciphertext *[BlockSize]byte) uint64 {
	return e.MAC(DomainData, addr, counter, ciphertext[:])
}

// --- Split-counter blocks ---------------------------------------------------

// CounterBlock is a VAULT-style split-counter block: one 64-bit major
// counter shared by 64 data blocks, one 6-bit minor counter per block, and
// the block's own 64-bit MAC (computed under the parent ToC counter).
// It serializes to exactly one 64-byte line:
//
//	bytes  0..7   major counter (LE)
//	bytes  8..55  64 minor counters, 6 bits each, packed little-endian
//	bytes 56..63  MAC (LE)
type CounterBlock struct {
	Major  uint64
	Minors [CountersPerBlock]uint8 // each 0..MinorMax
	MAC    uint64
}

// Counter returns the full encryption counter for slot i:
// major<<MinorBits | minor. This is the value fed into the IV.
func (c *CounterBlock) Counter(i int) uint64 {
	return c.Major<<MinorBits | uint64(c.Minors[i])
}

// Increment advances the minor counter of slot i. It reports overflow=true
// when the minor wrapped, in which case the caller must increment the major
// counter (via BumpMajor) and re-encrypt all covered blocks.
func (c *CounterBlock) Increment(i int) (overflow bool) {
	if c.Minors[i] == MinorMax {
		return true
	}
	c.Minors[i]++
	return false
}

// BumpMajor increments the major counter and clears every minor — the
// page re-encryption event of the split-counter scheme.
func (c *CounterBlock) BumpMajor() {
	c.Major++
	for i := range c.Minors {
		c.Minors[i] = 0
	}
}

// Serialize packs the counter block into a 64-byte line.
func (c *CounterBlock) Serialize() [BlockSize]byte {
	var out [BlockSize]byte
	binary.LittleEndian.PutUint64(out[0:8], c.Major)
	packMinors(out[8:56], &c.Minors)
	binary.LittleEndian.PutUint64(out[56:64], c.MAC)
	return out
}

// DeserializeCounterBlock unpacks a 64-byte line into a counter block.
func DeserializeCounterBlock(line *[BlockSize]byte) CounterBlock {
	var c CounterBlock
	c.Major = binary.LittleEndian.Uint64(line[0:8])
	unpackMinors(line[8:56], &c.Minors)
	c.MAC = binary.LittleEndian.Uint64(line[56:64])
	return c
}

// ContentMAC computes the MAC binding this counter block's contents to its
// block index and protecting parent counter. The stored MAC field is not
// part of the input.
func (c *CounterBlock) ContentMAC(e *Engine, blockIndex, parentCounter uint64) uint64 {
	body := c.Serialize()
	return CounterLineMAC(e, blockIndex, parentCounter, &body)
}

// CounterLineMAC is ContentMAC computed straight from a stored line: the
// codec is lossless (a 64-bit major and 64 six-bit minors fill bytes 0..55
// exactly), so the MAC input is the line's first 56 bytes as they are.
func CounterLineMAC(e *Engine, blockIndex, parentCounter uint64, line *[BlockSize]byte) uint64 {
	return e.MAC(DomainCounter, blockIndex, parentCounter, line[:56])
}

// CounterLine is a split-counter block in its stored form, the 64-byte line
// CounterBlock.Serialize produces, read and updated in place: a metadata
// cache way holds the line NVM stores, so a fill is a copy and a
// write-back MACs the way's own bytes. Its methods mirror CounterBlock's.
type CounterLine [BlockSize]byte

// Major returns the major counter (bytes 0..7).
func (l *CounterLine) Major() uint64 { return binary.LittleEndian.Uint64(l[0:8]) }

// minorAt returns the byte offset and bit shift of slot i's minor: bits
// [6i, 6i+6) of bytes 8..55, inside the little-endian 16-bit word at off.
func minorAt(i int) (off int, shift uint) {
	bit := i * MinorBits
	return 8 + bit/8, uint(bit % 8)
}

// Minor returns slot i's minor counter.
func (l *CounterLine) Minor(i int) uint8 {
	off, shift := minorAt(i)
	return uint8(binary.LittleEndian.Uint16(l[off:])>>shift) & MinorMax
}

// Counter returns the full encryption counter for slot i, as
// CounterBlock.Counter does.
func (l *CounterLine) Counter(i int) uint64 {
	return l.Major()<<MinorBits | uint64(l.Minor(i))
}

// Increment advances slot i's minor counter, or reports overflow=true and
// changes nothing when it is at MinorMax, as CounterBlock.Increment does.
// Below MinorMax the add cannot carry out of the 6-bit field.
func (l *CounterLine) Increment(i int) (overflow bool) {
	if l.Minor(i) == MinorMax {
		return true
	}
	off, shift := minorAt(i)
	binary.LittleEndian.PutUint16(l[off:], binary.LittleEndian.Uint16(l[off:])+1<<shift)
	return false
}

// BumpMajor increments the major counter and clears every minor.
func (l *CounterLine) BumpMajor() {
	binary.LittleEndian.PutUint64(l[0:8], l.Major()+1)
	clear(l[8:56])
}

// packMinors packs 64 6-bit values into 48 bytes, minor i in bits
// [6i, 6i+6) little-endian. Sixteen minors at a time become two 48-bit words
// (squeezeMinors) stored as twelve bytes, never past dst.
func packMinors(dst []byte, minors *[CountersPerBlock]uint8) {
	dst = dst[:CountersPerBlock*MinorBits/8]
	for i := 0; i < CountersPerBlock/16; i++ {
		lo := squeezeMinors(binary.LittleEndian.Uint64(minors[i*16:]))
		hi := squeezeMinors(binary.LittleEndian.Uint64(minors[i*16+8:]))
		d := dst[i*12 : i*12+12 : i*12+12]
		binary.LittleEndian.PutUint64(d, lo|hi<<48)
		binary.LittleEndian.PutUint32(d[8:], uint32(hi>>16))
	}
}

// unpackMinors reverses packMinors.
func unpackMinors(src []byte, minors *[CountersPerBlock]uint8) {
	src = src[:CountersPerBlock*MinorBits/8]
	for i := 0; i < CountersPerBlock/16; i++ {
		s := src[i*12 : i*12+12 : i*12+12]
		lo := binary.LittleEndian.Uint64(s)
		hi := lo>>48 | uint64(binary.LittleEndian.Uint32(s[8:]))<<16
		binary.LittleEndian.PutUint64(minors[i*16:], widenMinors(lo))
		binary.LittleEndian.PutUint64(minors[i*16+8:], widenMinors(hi))
	}
}

// squeezeMinors turns eight minors, one per byte of x, into 48 bits, minor j
// in bits [6j, 6j+6), by closing the gaps between lanes: 8-bit lanes to 6,
// 16-bit to 12, 32-bit to 24. Bits above MinorMax are dropped.
func squeezeMinors(x uint64) uint64 {
	x &= 0x3f3f3f3f3f3f3f3f
	x = x&0x003f003f003f003f | (x&0x3f003f003f003f00)>>2
	x = x&0x00000fff00000fff | (x&0x0fff00000fff0000)>>4
	return x&0x0000000000ffffff | (x&0x00ffffff00000000)>>8
}

// widenMinors reverses squeezeMinors, reading only the low 48 bits of x.
func widenMinors(x uint64) uint64 {
	x = x&0x0000000000ffffff | (x&0x0000ffffff000000)<<8
	x = x&0x00000fff00000fff | (x&0x00fff00000fff000)<<4
	return x&0x003f003f003f003f | (x&0x0fc00fc00fc00fc0)<<2
}
