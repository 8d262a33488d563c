//go:build amd64

package gf

// AVX2 dispatch for the nibble-split axpy kernels. haveAsm is resolved
// once at init from CPUID (AVX2 plus OS-enabled YMM state); when it is
// false — pre-Haswell hardware, or YMM state disabled by the OS — the
// portable nibble-table path in kernels.go takes over. haveGFNI adds
// the VGF2P8AFFINEQB axpy and the GF2P8MULB / VGF2P8AFFINEQB Hadamard
// kernels on top of AVX2; without it the axpy keeps the nibble kernel
// and the Hadamard kernels the scalar log/exp loop. Tests flip both
// to pin every reachable path against the scalar reference.
var (
	haveAsm  = detectAVX2()
	haveGFNI = haveAsm && detectGFNI()
)

func detectAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

func detectGFNI() bool {
	_, _, ecx7, _ := cpuidAsm(7, 0)
	return ecx7&(1<<8) != 0 // GFNI
}

// axpyLUT16 runs the SIMD kernel over the largest multiple of 16
// elements and finishes the tail with the scalar loop. c must be the
// constant the LUT was built for (nonzero).
func axpyLUT16(dst, src []Elem, lut *[128]byte, c Elem) {
	n := len(src) &^ 15
	if n > 0 {
		axpyNibbleAVX2(&dst[0], &src[0], n, lut)
	}
	if n < len(src) {
		mulSliceScalar16(dst[n:], src[n:], c)
	}
}

// axpyLUT8 is axpyLUT16 over GF(2^8); 32 elements per SIMD iteration.
func axpyLUT8(dst, src []uint8, lut *[32]byte, c uint8) {
	n := len(src) &^ 31
	if n > 0 {
		axpyNibble8AVX2(&dst[0], &src[0], n, lut)
	}
	if n < len(src) {
		mulSliceScalar8(dst[n:], src[n:], c)
	}
}

// axpyAffineGFNI computes dst[i] ^= c·src[i] over GF(2^16) for n
// elements (n > 0, n % 16 == 0) using c's affine form m from
// affineMulMatrix.
//
//go:noescape
func axpyAffineGFNI(dst, src *Elem, n int, m *[4]uint64)

// axpyNibbleAVX2 computes dst[i] ^= c·src[i] over GF(2^16) for n
// elements (n > 0, n % 16 == 0) using the packed shuffle LUT of
// packNibbleLUT16.
//
//go:noescape
func axpyNibbleAVX2(dst, src *Elem, n int, tab *[128]byte)

// axpyNibble8AVX2 is the GF(2^8) kernel: n > 0, n % 32 == 0; tab holds
// the two 16-entry nibble tables.
//
//go:noescape
func axpyNibble8AVX2(dst, src *uint8, n int, tab *[32]byte)

// hadamardGFNI computes dst[i] = a[i]·b[i] over GF(2^16) for n
// elements (n > 0, n % 16 == 0) through the tower field of tower.go.
//
//go:noescape
func hadamardGFNI(dst, a, b *Elem, n int)

// hadamardAccumGFNI is hadamardGFNI with dst[i] ^= a[i]·b[i].
//
//go:noescape
func hadamardAccumGFNI(dst, a, b *Elem, n int)

// hadamardAccumTiledGFNI is hadamardAccumGFNI against one 16-element
// block a repeated: dst[i] ^= a[i mod 16]·b[i].
//
//go:noescape
func hadamardAccumTiledGFNI(dst, a, b *Elem, n int)

// hadamardAccumScaledGFNI is hadamardGFNI with dst[i] ^= c·a[i]·b[i].
//
//go:noescape
func hadamardAccumScaledGFNI(dst, a, b *Elem, n int, c Elem)

// hadamard8GFNI computes dst[i] = a[i]·b[i] over GF(2^8) for n
// elements (n > 0, n % 32 == 0).
//
//go:noescape
func hadamard8GFNI(dst, a, b *uint8, n int)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)
