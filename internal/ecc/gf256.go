package ecc

// GF(2^8) arithmetic with the conventional primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same field used by standard RS
// implementations (CD/DVD, RAID-6).

const gfPoly = 0x11D

var (
	gfExp [512]byte // gfExp[i] = alpha^i, doubled to avoid mod in mul
	gfLog [256]byte // gfLog[alpha^i] = i
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b. Division by zero panics, as it indicates a decoder
// bug rather than an input condition.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ecc: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfPow raises alpha^i for non-negative i.
func gfPow(i int) byte { return gfExp[i%255] }

// gfInv returns the multiplicative inverse.
func gfInv(a byte) byte { return gfDiv(1, a) }

// polyEval evaluates a polynomial (coefficients highest-degree first) at x.
func polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = gfMul(y, x) ^ c
	}
	return y
}

// polyMul multiplies two polynomials (highest-degree first).
func polyMul(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= gfMul(ca, cb)
		}
	}
	return out
}
