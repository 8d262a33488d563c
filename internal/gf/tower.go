package gf

// GF(2^16) as a tower over the AES field, for the GFNI Hadamard kernels.
//
// GF2P8MULB multiplies two byte vectors in GF(2^8) mod 0x11B (the AES
// polynomial) and VGF2P8AFFINEQB applies one 8×8 bit matrix per qword.
// The working fields here are GF(2)[x]/Poly16 and GF(2)[x]/Poly8, so
// the GFNI kernels change basis in-register, multiply, and change back:
//
//   - GF(2^16) ≅ T = GF(2^8)[y]/(y² + y + λ), GF(2^8) mod 0x11B, with
//     λ = towerLambda. An element a1·y + a0 of T is the pair (a0, a1).
//     The isomorphism φ sends x to a root r of Poly16 in T, so
//     φ(x^i) = r^i (towerBasis builds φ⁻¹ directly). φ and φ⁻¹ are GF(2)-linear maps on 16 bits, i.e.
//     four 8×8 bit matrices each, which is what VGF2P8AFFINEQB applies.
//   - A product in T is three GF(2^8) products (Karatsuba):
//     p0 = a0·b0, p1 = a1·b1, p2 = (a0+a1)(b0+b1), and then
//     hi = p2 + p0, lo = p0 + λ·p1 (from y² = y + λ).
//   - GF(2)[x]/Poly8 ≅ GF(2^8)/0x11B by ψ(x) = a root s of Poly8, one
//     8×8 matrix each way.
//
// The kernels only ever hold tower values in registers: every slice,
// table and golden stays in the GF(2)[x]/Poly16 (resp. Poly8) basis,
// and the output is byte-identical to Mul (resp. Mul8) per element.
// On GFNI hardware init builds the matrices from first principles
// (irreducibility check, embedding search, Gauss–Jordan inverse), so a
// wrong constant cannot be typed in; the tests then pin the kernels
// against Mul.

const (
	polyAES     = 0x11B // x^8 + x^4 + x^3 + x + 1, what GF2P8MULB reduces by
	towerLambda = 0x20  // y² + y + λ has no root in GF(2^8)/0x11B
)

// gfniMatrices holds the VGF2P8AFFINEQB matrices and constant vectors
// the GFNI kernels load. Every field is one 32-byte ymm value, the
// same 16 bytes in both 128-bit lanes. kernels_amd64.s reads the
// fields at fixed offsets (32 bytes apart, in declaration order).
//
// The GF(2^16) kernels first shuffle each lane to [8 low bytes | 8 high
// bytes], so qword 0 of a lane holds low bytes and qword 1 high bytes,
// and "[A | B]" below means matrix A on qword 0, B on qword 1.
type gfniMatrices struct {
	toT1 [4]uint64 // [M00 | M11]: φ's low←low and high←high blocks
	toT2 [4]uint64 // [M10 | M01]: φ's high←low and low←high blocks
	// φ⁻¹ with the reduction lo = p0 + λ·p1, hi = p2 + p0 folded in:
	// out = aff(P, back1) ⊕ swap(aff(P, back2)) ⊕ aff(Q, back3) for
	// P = [p0 | p1] and Q = [p2 | p2].
	back1 [4]uint64
	back2 [4]uint64
	back3 [4]uint64
	lam   [4]uint64 // [λ | 1] bytes, to build the scaled kernel's constants
	to8   [4]uint64 // ψ: GF(2)[x]/Poly8 → GF(2^8)/0x11B
	from8 [4]uint64 // ψ⁻¹
}

// gfniMat is built by init in gf.go when haveGFNI, after the log/exp
// tables that towerBasis multiplies with.
var gfniMat gfniMatrices

// mulAES returns a·b in GF(2^8) mod 0x11B, bit by bit.
func mulAES(a, b uint8) uint8 {
	var p uint8
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= polyAES & 0xFF
		}
		b >>= 1
	}
	return p
}

// applyLinear returns f(v) for the GF(2)-linear map f with f(2^i) = img[i].
func applyLinear(img []uint16, v uint16) uint16 {
	var r uint16
	for i, w := range img {
		if v>>uint(i)&1 != 0 {
			r ^= w
		}
	}
	return r
}

// invertLinear returns the images of the unit vectors under f⁻¹, for
// the bijective GF(2)-linear map f on len(img) bits with f(2^i) = img[i],
// by Gauss–Jordan elimination on the rows (f(v), v).
func invertLinear(img []uint16) []uint16 {
	w := len(img)
	fv, v := make([]uint16, w), make([]uint16, w)
	for i := range img {
		fv[i], v[i] = img[i], 1<<uint(i)
	}
	for col := 0; col < w; col++ {
		p := col
		for p < w && fv[p]>>uint(col)&1 == 0 {
			p++
		}
		if p == w {
			panic("gf: basis change is singular")
		}
		fv[col], fv[p], v[col], v[p] = fv[p], fv[col], v[p], v[col]
		for r := range fv {
			if r != col && fv[r]>>uint(col)&1 != 0 {
				fv[r] ^= fv[col]
				v[r] ^= v[col]
			}
		}
	}
	return v
}

// affineMatrix returns the VGF2P8AFFINEQB qword of the GF(2)-linear
// byte map f.
func affineMatrix(f func(uint8) uint8) uint64 {
	var cols [8]uint8
	for j := range cols {
		cols[j] = f(1 << uint(j))
	}
	return affineQword(&cols)
}

// affineQword is affineMatrix of the map with f(1<<j) = cols[j]: byte
// 7−i of the qword selects the input bits whose parity is output bit i.
func affineQword(cols *[8]uint8) uint64 {
	var m uint64
	for j, col := range cols {
		for i := 0; i < 8; i++ {
			m |= uint64(col>>uint(i)&1) << uint(8*(7-i)+j)
		}
	}
	return m
}

// splitMatrix returns the GF(2)-linear 16-bit map f with f(2^b) =
// img[b] as the four VGF2P8AFFINEQB qwords [M00, M11, M10, M01] that
// act on split elements (qword 0 of a lane the low bytes, qword 1 the
// high bytes), where Mij maps input byte j to output byte i:
// f(x) = aff(x, [M00 | M11]) ⊕ swap(aff(x, [M10 | M01])).
func splitMatrix(img []uint16) [4]uint64 {
	blk := func(in, out uint) uint64 {
		var cols [8]uint8
		for j := range cols {
			cols[j] = uint8(img[8*in+uint(j)] >> (8 * out))
		}
		return affineQword(&cols)
	}
	return [4]uint64{blk(0, 0), blk(1, 1), blk(0, 1), blk(1, 0)}
}

// affineMulMatrix builds m, the 32-byte form of x ↦ c·x that
// axpyAffineGFNI broadcasts into both 128-bit lanes: multiplication by
// a fixed c is GF(2)-linear, so it is one splitMatrix of the images
// c·x^b, taken by doubling modulo Poly16 rather than from the log/exp
// tables a first use would miss in.
func affineMulMatrix(m *[4]uint64, c Elem) {
	var img [16]uint16
	v := uint32(c)
	for b := range img {
		img[b] = uint16(v)
		if v <<= 1; v&(1<<16) != 0 {
			v ^= Poly16
		}
	}
	*m = splitMatrix(img[:])
}

// lanes repeats the qword pair [q0 | q1] across both 128-bit lanes.
func lanes(q0, q1 uint64) [4]uint64 { return [4]uint64{q0, q1, q0, q1} }

// towerBasis returns φ⁻¹ as the images in GF(2)[x]/Poly16 of T's 16
// unit vectors (bit 8j+i is the byte 1<<i times y^j), after checking
// that T is a field. It builds T inside GF(2^16) rather than searching
// T for a root of Poly16, which takes ~17k trial evaluations in bitwise
// arithmetic: the subfield GF(2^8) of GF(2^16) is {0} ∪ the powers of
// Exp(257), a root β of 0x11B there embeds GF(2^8)/0x11B (byte 1<<i ↦
// β^i), and a root γ of y² + y + λ(β) then plays y.
func towerBasis() []uint16 {
	for t := 0; t < 256; t++ {
		if mulAES(uint8(t), uint8(t))^uint8(t)^towerLambda == 0 {
			panic("gf: y² + y + λ is reducible over GF(2^8)")
		}
	}
	img := make([]uint16, 16)
	for k := uint32(1); k < Order8 && img[0] == 0; k++ {
		beta := Exp(257 * k)
		p := [9]Elem{1}
		for i := 1; i <= 8; i++ {
			p[i] = Mul(p[i-1], beta)
		}
		if p[8]^p[4]^p[3]^p[1]^p[0] == 0 { // β^8 + β^4 + β^3 + β + 1
			copy(img, p[:8])
		}
	}
	if img[0] == 0 {
		panic("gf: 0x11B has no root in the subfield GF(2^8)")
	}
	lam := applyLinear(img[:8], towerLambda)
	for g := Elem(2); g != 0; g++ {
		if Mul(g, g)^g == lam {
			for i := 0; i < 8; i++ {
				img[8+i] = Mul(img[i], g)
			}
			return img
		}
	}
	panic("gf: y² + y + λ has no root in GF(2^16)")
}

// aesRoots returns s^0..s^7 for the least root s of Poly8 in
// GF(2^8)/0x11B.
func aesRoots() []uint16 {
	for s := 2; s < 256; s++ {
		pow := make([]uint16, 9)
		pow[0] = 1
		for i := 1; i <= 8; i++ {
			pow[i] = uint16(mulAES(uint8(pow[i-1]), uint8(s)))
		}
		// Poly8(s) = s^8 + s^4 + s^3 + s^2 + 1.
		if pow[8]^pow[4]^pow[3]^pow[2]^1 == 0 {
			return pow[:8]
		}
	}
	panic("gf: Poly8 has no root in GF(2^8)/0x11B")
}

func buildGFNIMatrices() {
	inv := towerBasis()
	phi := invertLinear(inv)
	back := func(v uint16) uint16 { return applyLinear(inv, v) }
	// block(f, in, out) is the byte map from input byte in to output
	// byte out of the 16-bit map f (byte 0 low, byte 1 high).
	block := func(f func(uint16) uint16, in, out uint) func(uint8) uint8 {
		return func(b uint8) uint8 { return uint8(f(uint16(b)<<(8*in)) >> (8 * out)) }
	}
	m := &gfniMat
	s := splitMatrix(phi) // φ's blocks
	m.toT1, m.toT2 = lanes(s[0], s[1]), lanes(s[2], s[3])
	// φ⁻¹'s blocks Nij, and the folded back matrices:
	// out_lo = N00·lo ⊕ N01·hi = (N00⊕N01)p0 ⊕ N00·λ·p1 ⊕ N01·p2,
	// out_hi = N10·lo ⊕ N11·hi = (N10⊕N11)p0 ⊕ N10·λ·p1 ⊕ N11·p2.
	n00, n01, n10, n11 := block(back, 0, 0), block(back, 1, 0), block(back, 0, 1), block(back, 1, 1)
	sum := func(f, g func(uint8) uint8) func(uint8) uint8 {
		return func(b uint8) uint8 { return f(b) ^ g(b) }
	}
	lam := func(f func(uint8) uint8) func(uint8) uint8 {
		return func(b uint8) uint8 { return f(mulAES(towerLambda, b)) }
	}
	m.back1 = lanes(affineMatrix(sum(n00, n01)), affineMatrix(lam(n10)))
	m.back2 = lanes(affineMatrix(sum(n10, n11)), affineMatrix(lam(n00)))
	m.back3 = lanes(affineMatrix(n01), affineMatrix(n11))
	m.lam = lanes(0x0101010101010101*towerLambda, 0x0101010101010101)

	psi := aesRoots()
	psiInv := invertLinear(psi)
	to8 := affineMatrix(func(b uint8) uint8 { return uint8(applyLinear(psi, uint16(b))) })
	from8 := affineMatrix(func(b uint8) uint8 { return uint8(applyLinear(psiInv, uint16(b))) })
	m.to8, m.from8 = lanes(to8, to8), lanes(from8, from8)
}
