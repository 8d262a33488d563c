//go:build !amd64

package gf

// No SIMD kernels on this architecture: the portable nibble-table path
// and the scalar Hadamard loops in kernels.go are always active.
// haveAsm and haveGFNI are vars (not consts) so the dispatch code reads
// identically on every architecture.
var haveAsm, haveGFNI = false, false

func axpyLUT16(dst, src []Elem, lut *[128]byte, c Elem) {
	panic("gf: SIMD kernel unavailable on this architecture")
}

func axpyLUT8(dst, src []uint8, lut *[32]byte, c uint8) {
	panic("gf: SIMD kernel unavailable on this architecture")
}

func axpyAffineGFNI(dst, src *Elem, n int, m *[4]uint64) {
	panic("gf: GFNI kernel unavailable on this architecture")
}

func hadamardGFNI(dst, a, b *Elem, n int) {
	panic("gf: GFNI kernel unavailable on this architecture")
}

func hadamardAccumGFNI(dst, a, b *Elem, n int) {
	panic("gf: GFNI kernel unavailable on this architecture")
}

func hadamardAccumTiledGFNI(dst, a, b *Elem, n int) {
	panic("gf: GFNI kernel unavailable on this architecture")
}

func hadamardAccumScaledGFNI(dst, a, b *Elem, n int, c Elem) {
	panic("gf: GFNI kernel unavailable on this architecture")
}

func hadamard8GFNI(dst, a, b *uint8, n int) {
	panic("gf: GFNI kernel unavailable on this architecture")
}
