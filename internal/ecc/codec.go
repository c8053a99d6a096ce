package ecc

import (
	"encoding/binary"
	"fmt"
)

// Result reports the outcome of decoding one protected line.
type Result struct {
	// Corrected is true when at least one error was repaired.
	Corrected bool
	// SymbolsCorrected counts repaired symbols (bits for SECDED,
	// bytes for Chipkill).
	SymbolsCorrected int
	// Uncorrectable is true when the line contains a detected
	// uncorrectable error; the data contents must not be trusted.
	Uncorrectable bool
	// BadWords has bit w set when 8-byte word w failed to decode.
	// Soteria's duplicated shadow entries (Fig 8) exploit this
	// per-codeword granularity: the surviving half of an entry is
	// readable even when the other half's codeword is dead.
	BadWords uint8
}

// Codec protects a 64-byte memory line with some error-correcting code.
// Implementations are pure functions of the line contents so the NVM model
// can store check bytes alongside data and replay decoding after fault
// injection.
type Codec interface {
	// Name identifies the codec in reports.
	Name() string
	// CheckBytes returns the number of check bytes stored per 64-byte
	// line.
	CheckBytes() int
	// Encode computes fresh check bytes for the line.
	Encode(data []byte) []byte
	// EncodeInto computes check bytes into check, which must be
	// CheckBytes() long. It is Encode without the allocation, for the
	// device write path.
	EncodeInto(check, data []byte)
	// Decode verifies data against check, correcting data in place when
	// possible.
	Decode(data, check []byte) Result
}

// NoECC is the null codec: nothing is detected, nothing is corrected. It
// models a raw memory array and is used by tests that want faults to reach
// the integrity-verification layer directly.
type NoECC struct{}

// Name implements Codec.
func (NoECC) Name() string { return "none" }

// CheckBytes implements Codec.
func (NoECC) CheckBytes() int { return 0 }

// Encode implements Codec.
func (NoECC) Encode([]byte) []byte { return nil }

// EncodeInto implements Codec.
func (NoECC) EncodeInto([]byte, []byte) {}

// Decode implements Codec.
func (NoECC) Decode([]byte, []byte) Result { return Result{} }

// Chipkill arranges a 64-byte line as eight RS(10,8) codewords over GF(2^8):
// beat b consists of the eight data bytes {line[b*8+j]} — one byte per data
// chip — plus two check bytes held on two ECC devices. Any single-chip
// failure corrupts at most one symbol per codeword and is always corrected;
// failures on two chips of the same rank produce two bad symbols per
// codeword and are detected as uncorrectable. This mirrors the
// Chipkill-Correct repair mechanism named in Table 4.
//
// The code is linear over GF(2), so a beat's check symbols are the XOR of the
// check symbols of its eight data symbols taken one at a time: eight
// independent table loads. A systematic codeword is valid (all syndromes
// zero) exactly when its stored check symbols equal the re-encoded ones, so
// only a beat that fails that comparison goes to the RS decoder.
type Chipkill struct {
	rs *RS
	// pos[j][v] is the check-symbol pair (first symbol in the low byte) of
	// the beat whose only non-zero data symbol is v at position j.
	pos [8][256]uint16
}

// NewChipkill constructs the Chipkill line codec.
func NewChipkill() *Chipkill {
	rs, err := NewRS(8, 2)
	if err != nil {
		panic(fmt.Sprintf("ecc: building RS(10,8): %v", err))
	}
	c := &Chipkill{rs: rs}
	var msg [8]byte
	var rem [2]byte
	for j := range c.pos {
		for v := 1; v < 256; v++ {
			msg[j] = byte(v)
			rs.EncodeTo(rem[:], msg[:])
			c.pos[j][v] = binary.LittleEndian.Uint16(rem[:])
		}
		msg[j] = 0
	}
	return c
}

// Name implements Codec.
func (c *Chipkill) Name() string { return "chipkill" }

// CheckBytes implements Codec: 2 check bytes per 8-byte beat.
func (c *Chipkill) CheckBytes() int { return 16 }

// Encode implements Codec.
func (c *Chipkill) Encode(data []byte) []byte {
	check := make([]byte, 16)
	c.EncodeInto(check, data)
	return check
}

// beatCheck returns the check-symbol pair, packed as in pos, of the beat
// whose eight data symbols are the bytes of w, first symbol lowest.
func (c *Chipkill) beatCheck(w uint64) uint16 {
	return c.pos[0][byte(w)] ^ c.pos[1][byte(w>>8)] ^ c.pos[2][byte(w>>16)] ^ c.pos[3][byte(w>>24)] ^
		c.pos[4][byte(w>>32)] ^ c.pos[5][byte(w>>40)] ^ c.pos[6][byte(w>>48)] ^ c.pos[7][byte(w>>56)]
}

// EncodeInto implements Codec.
func (c *Chipkill) EncodeInto(check, data []byte) {
	data, check = data[:64], check[:16]
	for b := 0; b < 8; b++ {
		binary.LittleEndian.PutUint16(check[b*2:], c.beatCheck(binary.LittleEndian.Uint64(data[b*8:])))
	}
}

// Decode implements Codec.
func (c *Chipkill) Decode(data, check []byte) Result {
	data, check = data[:64], check[:16]
	res := Result{}
	for b := 0; b < 8; b++ {
		if c.beatCheck(binary.LittleEndian.Uint64(data[b*8:])) == binary.LittleEndian.Uint16(check[b*2:]) {
			continue
		}
		n, ok := c.rs.Decode(data[b*8:b*8+8], check[b*2:b*2+2])
		if !ok {
			res.Uncorrectable = true
			res.BadWords |= 1 << b
			continue
		}
		res.Corrected = true
		res.SymbolsCorrected += n
	}
	return res
}
