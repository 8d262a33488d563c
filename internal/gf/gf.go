// Package gf implements arithmetic in the binary Galois fields GF(2^8),
// GF(2^16), GF(2^32) and GF(2^64).
//
// MIDAS evaluates the k-MLD polynomial over GF(2^b)[Z2^k] (Williams'
// refinement of Koutis' algorithm; see the paper, Section III-B). The
// paper uses b = 3 + log2(k), i.e. b ≈ 8 for k up to 18; this package
// defaults to GF(2^16), which costs the same per operation on modern
// hardware (one table lookup) and drives the Schwartz–Zippel failure
// probability per round from ~k/2^8 down to ~k/2^16. GF(2^8) and the
// carry-less GF(2^32)/GF(2^64) variants are provided for the field-width
// ablation (DESIGN.md §6.3).
//
// Addition in every GF(2^b) is XOR. Multiplication in GF(2^8) and
// GF(2^16) uses log/exp tables over a primitive polynomial;
// GF(2^32)/GF(2^64) use a shift-and-xor carry-less product followed by
// modular reduction, since their tables would not fit in cache.
package gf

// Primitive/irreducible polynomials (low bits; the leading term is
// implicit). These match the widely used GF-Complete / Reed-Solomon
// conventions, under which x (=2) is a primitive element for w=8,16.
const (
	Poly8   = 0x11D     // x^8 + x^4 + x^3 + x^2 + 1
	Poly16  = 0x1100B   // x^16 + x^12 + x^3 + x + 1
	Poly32  = 0x400007  // x^32 + x^22 + x^2 + x + 1
	Poly64  = 0x1B      // x^64 + x^4 + x^3 + x + 1
	Order8  = 1<<8 - 1  // multiplicative group order of GF(2^8)
	Order16 = 1<<16 - 1 // multiplicative group order of GF(2^16)
)

// Elem is the element type of the default working field, GF(2^16).
// The DP inner loops of internal/mld and internal/core are written
// against this concrete type for speed.
type Elem = uint16

// exp16 carries three periods of the exponent table (not the usual
// two) so that triple products a·b·c can be computed as one lookup
// exp16[log a + log b + log c] without a modular reduction; the fused
// scan-statistics kernel (MulHadamardAccumScaled) depends on this.
var (
	exp8  [2 * Order8]uint8
	log8  [1 << 8]uint16 // log8[0] is unused
	exp16 [3 * Order16]uint16
	log16 [1 << 16]uint32 // log16[0] is unused
)

func init() {
	buildTables()
	if haveGFNI {
		buildGFNIMatrices()
	}
}

func buildTables() {
	x := uint16(1)
	for i := 0; i < Order8; i++ {
		exp8[i] = uint8(x)
		exp8[i+Order8] = uint8(x)
		log8[x] = uint16(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly8
		}
	}
	y := uint32(1)
	for i := 0; i < Order16; i++ {
		exp16[i] = uint16(y)
		exp16[i+Order16] = uint16(y)
		exp16[i+2*Order16] = uint16(y)
		log16[y] = uint32(i)
		y <<= 1
		if y&0x10000 != 0 {
			y ^= Poly16
		}
	}
}

// Add8 returns a+b in GF(2^8).
func Add8(a, b uint8) uint8 { return a ^ b }

// Mul8 returns a·b in GF(2^8).
func Mul8(a, b uint8) uint8 {
	if a == 0 || b == 0 {
		return 0
	}
	return exp8[log8[a]+log8[b]]
}

// Inv8 returns the multiplicative inverse of a in GF(2^8).
// It panics on a == 0.
func Inv8(a uint8) uint8 {
	if a == 0 {
		panic("gf: inverse of zero in GF(2^8)")
	}
	return exp8[Order8-log8[a]]
}

// Add returns a+b in GF(2^16).
func Add(a, b Elem) Elem { return a ^ b }

// Mul returns a·b in GF(2^16). This is the hot multiply of the whole
// repository: one branch and one lookup into a 256 KiB table.
func Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return exp16[log16[a]+log16[b]]
}

// Inv returns the multiplicative inverse of a in GF(2^16).
// It panics on a == 0.
func Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero in GF(2^16)")
	}
	return exp16[Order16-log16[a]]
}

// Div returns a/b in GF(2^16). It panics on b == 0.
func Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero in GF(2^16)")
	}
	if a == 0 {
		return 0
	}
	la, lb := log16[a], log16[b]
	if la < lb {
		la += Order16
	}
	return exp16[la-lb]
}

// Pow returns a^n in GF(2^16), with Pow(0,0) == 1 by convention.
func Pow(a Elem, n uint64) Elem {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (uint64(log16[a]) * n) % Order16
	return exp16[l]
}

// Exp returns the primitive element raised to the i-th power, i.e. the
// i-th entry of the exponent table, for i in [0, Order16).
func Exp(i uint32) Elem { return exp16[i%Order16] }

// NonZero maps a 64-bit hash to a nonzero element of GF(2^16). It is
// used to derive the per-(edge, level) fingerprint coefficients of the
// multilinear DP from internal/rng hashes: the map must never produce 0
// (a zero fingerprint would silently delete an edge from the instance).
func NonZero(h uint64) Elem {
	return exp16[h%Order16]
}

// NonZero8 is NonZero for GF(2^8).
func NonZero8(h uint64) uint8 {
	return exp8[h%Order8]
}

// Mul32 returns a·b in GF(2^32) (carry-less multiply + reduction by
// Poly32). Bitwise Russian-peasant: ~32 iterations, no tables.
func Mul32(a, b uint32) uint32 {
	var p uint32
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80000000
		a <<= 1
		if hi != 0 {
			a ^= Poly32
		}
		b >>= 1
	}
	return p
}

// Mul64 returns a·b in GF(2^64) (carry-less multiply + reduction by
// Poly64).
func Mul64(a, b uint64) uint64 {
	var p uint64
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x8000000000000000
		a <<= 1
		if hi != 0 {
			a ^= Poly64
		}
		b >>= 1
	}
	return p
}

// Pow32 returns a^n in GF(2^32) by square-and-multiply.
func Pow32(a uint32, n uint64) uint32 {
	r := uint32(1)
	for n > 0 {
		if n&1 != 0 {
			r = Mul32(r, a)
		}
		a = Mul32(a, a)
		n >>= 1
	}
	return r
}

// Inv32 returns the inverse of a in GF(2^32) as a^(2^32-2).
// It panics on a == 0.
func Inv32(a uint32) uint32 {
	if a == 0 {
		panic("gf: inverse of zero in GF(2^32)")
	}
	return Pow32(a, 1<<32-2)
}

// Pow64 returns a^n in GF(2^64) by square-and-multiply.
func Pow64(a uint64, n uint64) uint64 {
	r := uint64(1)
	for n > 0 {
		if n&1 != 0 {
			r = Mul64(r, a)
		}
		a = Mul64(a, a)
		n >>= 1
	}
	return r
}

// Inv64 returns the inverse of a in GF(2^64) as a^(2^64-2).
// It panics on a == 0.
func Inv64(a uint64) uint64 {
	if a == 0 {
		panic("gf: inverse of zero in GF(2^64)")
	}
	return Pow64(a, ^uint64(1)) // exponent 2^64 - 2
}

// The vector kernels the DP inner loops run on — MulSlice16,
// HadamardInto, MulHadamardAccum, MulHadamardAccumScaled, their
// prebuilt-table variants, and the GF(2^8) mirrors — live in
// kernels.go: nibble-split tables for the constant multiplies, and
// GFNI tower-field products (tower.go) or log/exp lookups for the
// variable × variable ones.
