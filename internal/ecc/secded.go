package ecc

// Hamming SECDED(72,64): 64 data bits are protected by 7 Hamming parity
// bits plus one overall parity bit, giving single-error correction and
// double-error detection per 8-byte word. This is the classic code used by
// commodity ECC DIMMs and serves as the "weak" baseline in the paper's
// discussion of why metadata needs protection beyond the module's ECC.

// secdedDataPos maps data-bit index (0..63) to its codeword position
// (1..71, skipping power-of-two parity positions).
var secdedDataPos [64]int

// secdedPosData is the inverse map: codeword position -> data bit index,
// or -1 for parity positions.
var secdedPosData [72]int

func init() {
	for i := range secdedPosData {
		secdedPosData[i] = -1
	}
	i := 0
	for pos := 1; pos <= 71 && i < 64; pos++ {
		if pos&(pos-1) == 0 {
			continue // parity position
		}
		secdedDataPos[i] = pos
		secdedPosData[pos] = i
		i++
	}
}

// buildCodeword expands data plus the 7 stored Hamming bits into codeword
// positions 1..71.
func buildCodeword(data uint64, check byte) (code [72]bool) {
	for i := 0; i < 64; i++ {
		code[secdedDataPos[i]] = data&(1<<uint(i)) != 0
	}
	for p := 0; p < 7; p++ {
		code[1<<uint(p)] = check&(1<<uint(p)) != 0
	}
	return code
}

// secdedEncode returns the 8 check bits (7 Hamming parity bits in the low
// bits plus the overall parity bit in the MSB) for one 64-bit data word.
func secdedEncode(data uint64) byte {
	var code [72]bool
	for i := 0; i < 64; i++ {
		code[secdedDataPos[i]] = data&(1<<uint(i)) != 0
	}
	var check byte
	for p := 0; p < 7; p++ {
		mask := 1 << uint(p)
		parity := false
		for pos := 1; pos <= 71; pos++ {
			if pos&mask != 0 && code[pos] {
				parity = !parity
			}
		}
		// Choosing the parity bit equal to the data parity makes the
		// total parity of each covered group even.
		if parity {
			check |= byte(mask)
			code[mask] = true
		}
	}
	// Overall parity over all 71 codeword positions; the stored overall
	// bit makes the 72-bit total even.
	overall := false
	for pos := 1; pos <= 71; pos++ {
		if code[pos] {
			overall = !overall
		}
	}
	if overall {
		check |= 0x80
	}
	return check
}

// secdedDecode checks and (if possible) corrects one 64-bit word given its
// stored check byte. It returns the corrected word, whether anything was
// corrected, and whether the word is detectably uncorrectable.
func secdedDecode(data uint64, check byte) (out uint64, corrected, uncorrectable bool) {
	code := buildCodeword(data, check)

	// Syndrome: for each parity group the XOR over all member positions
	// (parity bit included) must be zero; the assembled mismatches spell
	// out the faulty position.
	syndrome := 0
	for p := 0; p < 7; p++ {
		mask := 1 << uint(p)
		parity := false
		for pos := 1; pos <= 71; pos++ {
			if pos&mask != 0 && code[pos] {
				parity = !parity
			}
		}
		if parity {
			syndrome |= mask
		}
	}
	total := check&0x80 != 0
	for pos := 1; pos <= 71; pos++ {
		if code[pos] {
			total = !total
		}
	}

	switch {
	case syndrome == 0 && !total:
		return data, false, false
	case syndrome == 0 && total:
		// Only the overall parity bit flipped; data is intact.
		return data, true, false
	case total:
		// Odd number of flips: assume a single-bit error at position
		// `syndrome`.
		if syndrome > 71 {
			return data, false, true
		}
		di := secdedPosData[syndrome]
		if di < 0 {
			// A Hamming parity bit flipped; data is intact.
			return data, true, false
		}
		return data ^ (1 << uint(di)), true, false
	default:
		// Non-zero syndrome with even overall parity: double error.
		return data, false, true
	}
}

// SECDED is a line codec applying Hamming SECDED(72,64) independently to
// each 8-byte word of a 64-byte line, exactly as commodity x72 DIMMs do.
// The paper's Fig 8 relies on this per-word codeword structure: Soteria
// places the two halves of a duplicated shadow entry in different codewords
// so one uncorrectable word cannot destroy both copies.
type SECDED struct{}

// Name implements Codec.
func (SECDED) Name() string { return "secded72" }

// CheckBytes implements Codec: one check byte per 8-byte word.
func (SECDED) CheckBytes() int { return 8 }

// Encode implements Codec.
func (SECDED) Encode(data []byte) []byte {
	check := make([]byte, 8)
	SECDED{}.EncodeInto(check, data)
	return check
}

// EncodeInto implements Codec.
func (SECDED) EncodeInto(check, data []byte) {
	for w := 0; w < 8; w++ {
		check[w] = secdedEncode(word(data, w))
	}
}

// Decode implements Codec. Each word is decoded independently; the line is
// uncorrectable if any word is.
func (SECDED) Decode(data, check []byte) Result {
	res := Result{}
	for w := 0; w < 8; w++ {
		v, corr, unc := secdedDecode(word(data, w), check[w])
		if unc {
			res.Uncorrectable = true
			res.BadWords |= 1 << w
			continue
		}
		if corr {
			res.Corrected = true
			res.SymbolsCorrected++
			putWord(data, w, v)
		}
	}
	return res
}

func word(b []byte, w int) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[w*8+i]) << uint(8*i)
	}
	return v
}

func putWord(b []byte, w int, v uint64) {
	for i := 0; i < 8; i++ {
		b[w*8+i] = byte(v >> uint(8*i))
	}
}
