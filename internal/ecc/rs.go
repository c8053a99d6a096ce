package ecc

import "fmt"

// RS is a systematic Reed-Solomon code over GF(2^8) with k data symbols and
// nsym check symbols per codeword (n = k + nsym <= 255). It corrects up to
// nsym/2 symbol errors and detects most heavier corruptions.
type RS struct {
	k, nsym int
	gen     []byte // generator polynomial, highest-degree first
}

// NewRS builds a Reed-Solomon code with k data symbols and nsym check
// symbols.
func NewRS(k, nsym int) (*RS, error) {
	if k <= 0 || nsym <= 0 || k+nsym > 255 {
		return nil, fmt.Errorf("ecc: invalid RS parameters k=%d nsym=%d", k, nsym)
	}
	gen := []byte{1}
	for i := 0; i < nsym; i++ {
		gen = polyMul(gen, []byte{1, gfPow(i)})
	}
	return &RS{k: k, nsym: nsym, gen: gen}, nil
}

// Encode computes the nsym check symbols for the k data symbols in msg.
func (r *RS) Encode(msg []byte) []byte {
	rem := make([]byte, r.nsym)
	r.EncodeTo(rem, msg)
	return rem
}

// EncodeTo computes the nsym check symbols for the k data symbols in msg
// into rem (len nsym), without allocating.
func (r *RS) EncodeTo(rem, msg []byte) {
	if len(msg) != r.k || len(rem) != r.nsym {
		panic(fmt.Sprintf("ecc: RS.EncodeTo got %d/%d symbols, want %d/%d", len(msg), len(rem), r.k, r.nsym))
	}
	// Polynomial long division of msg * x^nsym by the generator.
	for i := range rem {
		rem[i] = 0
	}
	for _, m := range msg {
		factor := m ^ rem[0]
		copy(rem, rem[1:])
		rem[r.nsym-1] = 0
		for j := 1; j < len(r.gen); j++ {
			rem[j-1] ^= gfMul(r.gen[j], factor)
		}
	}
}

// syndromesInto fills syn (len nsym) with the syndromes of the received
// codeword (data||check) and reports whether they are all zero.
func (r *RS) syndromesInto(syn, cw []byte) bool {
	clean := true
	for i := 0; i < r.nsym; i++ {
		syn[i] = polyEval(cw, gfPow(i))
		if syn[i] != 0 {
			clean = false
		}
	}
	return clean
}

// Decode attempts to correct the codeword formed by msg||check in place.
// It returns the number of symbols corrected, or ok=false when the codeword
// is detectably uncorrectable. Miscorrection (an undetected heavy error) is
// possible with any bounded-distance decoder and is exercised in tests.
func (r *RS) Decode(msg, check []byte) (corrected int, ok bool) {
	if len(msg) != r.k || len(check) != r.nsym {
		panic("ecc: RS.Decode called with wrong lengths")
	}
	// The codeword and every polynomial below fit fixed arrays (n <= 255,
	// at most nsym+1 coefficients), so decoding allocates nothing, and
	// one RS may decode on several goroutines at once.
	var cwBuf [255]byte
	cw := cwBuf[:r.k+r.nsym]
	copy(cw, msg)
	copy(cw[r.k:], check)

	var synBuf [254]byte
	syn := synBuf[:r.nsym]
	if r.syndromesInto(syn, cw) {
		return 0, true
	}

	// Berlekamp-Massey: find the error-locator polynomial sigma
	// (lowest-degree first here for convenience).
	var sigma, prev [256]byte
	sigma[0], prev[0] = 1, 1
	nSigma, nPrev := 1, 1
	var l, m int = 0, 1
	b := byte(1)
	for n := 0; n < r.nsym; n++ {
		var d byte = syn[n]
		for i := 1; i <= l && i < nSigma; i++ {
			d ^= gfMul(sigma[i], syn[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		coef := gfDiv(d, b)
		if 2*l <= n {
			saved, nSaved := sigma, nSigma
			nSigma = addShifted(&sigma, nSigma, &prev, nPrev, coef, m)
			l = n + 1 - l
			prev, nPrev = saved, nSaved
			b = d
			m = 1
		} else {
			nSigma = addShifted(&sigma, nSigma, &prev, nPrev, coef, m)
			m++
		}
	}
	degree := nSigma - 1
	for degree > 0 && sigma[degree] == 0 {
		degree--
	}
	if degree == 0 || degree > r.nsym/2 {
		return 0, false // too many errors to correct
	}

	// Chien search for error positions.
	n := r.k + r.nsym
	var errPos [255]uint8
	nErr := 0
	for i := 0; i < n; i++ {
		// Position i (highest-degree-first index) corresponds to
		// codeword exponent n-1-i; a root at alpha^{-(n-1-i)} marks an
		// error there.
		xinv := gfPow(255 - (n-1-i)%255)
		var v byte
		for j := nSigma - 1; j >= 0; j-- {
			v = gfMul(v, xinv) ^ sigma[j]
		}
		if v == 0 {
			errPos[nErr] = uint8(i)
			nErr++
		}
	}
	if nErr != degree {
		return 0, false // locator polynomial has wrong root count
	}

	// Forney's algorithm for error magnitudes.
	// Omega(x) = [S(x) * sigma(x)] mod x^nsym, with S lowest-first.
	var omega [255]byte
	for i := 0; i < r.nsym; i++ {
		for j := 0; j <= i && j < nSigma; j++ {
			omega[i] ^= gfMul(sigma[j], syn[i-j])
		}
	}
	for _, pos := range errPos[:nErr] {
		xiExp := (n - 1 - int(pos)) % 255
		xi := gfPow(xiExp)
		xiInv := gfInv(xi)
		// omega(xi^-1)
		var num byte
		for i := r.nsym - 1; i >= 0; i-- {
			num = gfMul(num, xiInv) ^ omega[i]
		}
		// sigma'(xi^-1): formal derivative keeps odd-power terms.
		var den byte
		for i := 1; i < nSigma; i += 2 {
			term := sigma[i]
			for j := 0; j < i-1; j++ {
				term = gfMul(term, xiInv)
			}
			den ^= term
		}
		if den == 0 {
			return 0, false
		}
		mag := gfMul(xi, gfDiv(num, den))
		cw[pos] ^= mag
	}

	// Verify: corrected codeword must have zero syndromes.
	if !r.syndromesInto(syn, cw) {
		return 0, false
	}
	copy(msg, cw[:r.k])
	copy(check, cw[r.k:])
	return nErr, true
}

// addShifted adds coef * b * x^shift into a (na coefficients; b has nb),
// both lowest-degree-first, and returns a's new length.
func addShifted(a *[256]byte, na int, b *[256]byte, nb int, coef byte, shift int) int {
	for i, c := range b[:nb] {
		a[i+shift] ^= gfMul(c, coef)
	}
	return max(na, nb+shift)
}
