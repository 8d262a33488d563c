package gf

import "testing"

// towerMul returns a·b in T = GF(2^8)[y]/(y² + y + λ) by schoolbook
// multiplication; a value's low byte is a0, its high byte a1. It is the
// scalar reference for the tower arithmetic the GFNI kernels run.
func towerMul(a, b uint16) uint16 {
	a0, a1, b0, b1 := uint8(a), uint8(a>>8), uint8(b), uint8(b>>8)
	p1 := mulAES(a1, b1)
	lo := mulAES(a0, b0) ^ mulAES(towerLambda, p1)
	hi := mulAES(a0, b1) ^ mulAES(a1, b0) ^ p1
	return uint16(lo) | uint16(hi)<<8
}

// TestTowerIsomorphism checks, on every architecture, the basis
// changes the GFNI kernels are built from: φ: GF(2)[x]/Poly16 → T and
// ψ: GF(2)[x]/Poly8 → GF(2^8)/0x11B are invertible and multiplicative.
// Both sides of φ(u·v) = φ(u)·φ(v) are bilinear in (u, v), so checking
// every pair of basis vectors checks every pair.
func TestTowerIsomorphism(t *testing.T) {
	inv := towerBasis()
	phi := invertLinear(inv)
	for i := 0; i < 16; i++ {
		u := Elem(1) << i
		if back := applyLinear(inv, applyLinear(phi, u)); back != u {
			t.Fatalf("φ⁻¹(φ(x^%d)) = %#x", i, back)
		}
		for j := 0; j < 16; j++ {
			v := Elem(1) << j
			if got, want := towerMul(applyLinear(phi, u), applyLinear(phi, v)), applyLinear(phi, Mul(u, v)); got != want {
				t.Fatalf("φ(x^%d)·φ(x^%d) = %#x, want φ(x^%d·x^%d) = %#x", i, j, got, i, j, want)
			}
		}
	}
	// φ(x) is a root of Poly16 in T: x^16 = x^12 + x^3 + x + 1.
	r := applyLinear(phi, 2)
	p := uint16(1)
	for i := 0; i < 16; i++ {
		p = towerMul(p, r)
	}
	if want := applyLinear(phi, Pow(2, 12)^Pow(2, 3)^2^1); p != want {
		t.Fatalf("φ(x)^16 = %#x, want %#x", p, want)
	}

	psi := aesRoots()
	psiInv := invertLinear(psi)
	for i := 0; i < 8; i++ {
		u := uint8(1) << i
		if back := uint8(applyLinear(psiInv, applyLinear(psi, uint16(u)))); back != u {
			t.Fatalf("ψ⁻¹(ψ(x^%d)) = %#x", i, back)
		}
		for j := 0; j < 8; j++ {
			v := uint8(1) << j
			got := mulAES(uint8(applyLinear(psi, uint16(u))), uint8(applyLinear(psi, uint16(v))))
			if want := uint8(applyLinear(psi, uint16(Mul8(u, v)))); got != want {
				t.Fatalf("ψ(x^%d)·ψ(x^%d) = %#x, want %#x", i, j, got, want)
			}
		}
	}
}

// TestAffineMatrixLayout pins affineMatrix to the VGF2P8AFFINEQB bit
// order on two maps whose matrices are known: the identity is
// 0x0102040810204080, and bit reversal is its byte reversal.
func TestAffineMatrixLayout(t *testing.T) {
	if m := affineMatrix(func(b uint8) uint8 { return b }); m != 0x0102040810204080 {
		t.Fatalf("identity matrix = %#x", m)
	}
	rev := func(b uint8) uint8 {
		var r uint8
		for i := 0; i < 8; i++ {
			r |= (b >> i & 1) << (7 - i)
		}
		return r
	}
	if m := affineMatrix(rev); m != 0x8040201008040201 {
		t.Fatalf("bit-reversal matrix = %#x", m)
	}
}
