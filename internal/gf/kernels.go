package gf

// Vector kernels for the DP inner loops.
//
// The DP inner loops of internal/mld and internal/core funnel the whole
// 2^k iteration space through the axpy/Hadamard kernels below, so their
// per-element shape dominates the repository's runtime. The axpy
// kernels (dst[i] ^= c·src[i], one constant against a whole slice)
// exploit that multiplication by a fixed c is linear over GF(2), and
// each dispatch path keeps a per-constant form of that linear map in
// the coefficient store (coeffstore.go):
//
//   - On amd64 with GFNI, the map on 16 bits is four 8×8 bit matrices
//     Mij (input byte j to output byte i), 32 bytes per constant. The
//     kernel (kernels_amd64.s) shuffles 16 elements into [8 low bytes |
//     8 high bytes] per 128-bit lane, computes
//     aff(x, [M00 | M11]) ⊕ swap(aff(x, [M10 | M01])) with two
//     VGF2P8AFFINEQB, and shuffles back: the same pattern that changes
//     basis into the tower field of tower.go.
//   - Elsewhere the map decomposes over the four 4-bit nibbles of s into
//
//     c·s = T0[s&15] ^ T1[(s>>4)&15] ^ T2[(s>>8)&15] ^ T3[s>>12]
//
//     where each 16-entry Tj is built from four real multiplies (c·2^b)
//     and eleven XORs: a branch-free stream with a tiny working set
//     instead of two dependent lookups into the 256 KiB log/exp tables
//     and a data-dependent zero-branch per element. With AVX2 the
//     16-entry tables are exactly the shape of a VPSHUFB shuffle: each
//     splits into a low-byte and a high-byte 16-lane register, and 16
//     elements are processed per iteration, in the style of Plank et
//     al.'s "Screaming Fast Galois Field Arithmetic" SIMD kernels. The
//     portable fallback reads the four tables directly, or for long
//     slices fuses nibble pairs into two 256-entry byte tables
//     (lo[s&255] ^ hi[s>>8], 1 KiB, L1-resident).
//
// The Hadamard kernels (x[i]·y[i], both operands varying) cannot use
// per-constant forms. On amd64 with GFNI they run 16 elements per
// iteration in the tower field GF(2^8)[y]/(y² + y + λ) of tower.go:
// VGF2P8AFFINEQB changes basis in-register, GF2P8MULB multiplies (three
// byte products per element, Karatsuba), and a second set of affine
// matrices changes back, so slices stay in the GF(2)[x]/Poly16 basis
// and the output is byte-identical to Mul. HadamardInto8 does the same
// with one basis change into GF(2^8)/0x11B, 32 elements per iteration.
// Tails and machines without GFNI keep the scalar log/exp form — on the
// dense slices the DP produces, the zero-branch is well-predicted and
// beats a branch-free masked form — with the scaled variant fused into
// a single triple-product lookup via the three-period exp16 table.
//
// Callers pass the coefficient itself to MulSlice16, which fetches (or
// on first use builds) the constant's form from the store, or gather
// forms ahead with FormsOf and pass each to MulSliceForm. MulTable and
// MulSliceTable16 keep the nibble-table form available outside the
// store, for callers that hold one table for one constant. Every kernel
// here is pinned byte-identical to the scalar reference, on every
// reachable dispatch path, by the property/fuzz tests in
// kernels_fuzz_test.go.

// word abstracts the element width so GF(2^16) and GF(2^8) share one
// nibble-table construction (the field-width ablation measures the
// same kernel style in both fields).
type word interface {
	~uint8 | ~uint16
}

// buildNibbleTables fills t (length 16·nibbles: 64 for GF(2^16), 32
// for GF(2^8)) with the per-nibble product tables of c:
// t[16j+n] = c·(n << 4j). Each 16-entry block costs four real
// multiplies (the power-of-two entries) and eleven XORs (every other
// index v is the XOR of its lowest set bit and the rest).
func buildNibbleTables[W word](t []W, c W, mul func(W, W) W) {
	for j := 0; j*16 < len(t); j++ {
		blk := t[j*16 : j*16+16 : j*16+16]
		blk[0] = 0
		for b := 0; b < 4; b++ {
			blk[1<<b] = mul(c, W(1)<<uint(4*j+b))
		}
		for v := 3; v < 16; v++ {
			if v&(v-1) != 0 {
				blk[v] = blk[v&(v-1)] ^ blk[v&-v]
			}
		}
	}
}

// fuseByteTables expands the four nibble tables into the two 256-entry
// byte-fused tables of the portable path: b[s] = c·s and
// b[256+s] = c·(s<<8) for s in [0,256).
func fuseByteTables(nt *[64]Elem, b *[512]Elem) {
	for s := 0; s < 256; s++ {
		b[s] = nt[s&15] ^ nt[16+(s>>4)]
		b[256+s] = nt[32+(s&15)] ^ nt[48+(s>>4)]
	}
}

// fuseByteTables8 is the GF(2^8) analogue: one full 256-entry product
// table b[s] = c·s, giving a single L1 load per element.
func fuseByteTables8(nt *[32]uint8, b *[256]uint8) {
	for s := 0; s < 256; s++ {
		b[s] = nt[s&15] ^ nt[16+(s>>4)]
	}
}

// packNibbleLUT16 repacks the four 16-entry GF(2^16) nibble tables
// into the SIMD shuffle layout: for nibble j, the 16 low result bytes
// at lut[32j:32j+16] and the 16 high result bytes at
// lut[32j+16:32j+32].
func packNibbleLUT16(nt *[64]Elem, lut *[128]byte) {
	for j := 0; j < 4; j++ {
		for n := 0; n < 16; n++ {
			v := nt[j*16+n]
			lut[j*32+n] = byte(v)
			lut[j*32+16+n] = byte(v >> 8)
		}
	}
}

// unpackNibbleLUT16 is the inverse of packNibbleLUT16.
func unpackNibbleLUT16(lut *[128]byte, nt *[64]Elem) {
	for j := 0; j < 4; j++ {
		for n := 0; n < 16; n++ {
			nt[j*16+n] = Elem(lut[j*32+n]) | Elem(lut[j*32+16+n])<<8
		}
	}
}

// axpyNibble is the portable table axpy for slices too short to
// amortize fusing byte tables: four independent lookups into the
// 128-byte nibble tables per element, no branches. dst and src must
// have equal, nonzero length.
func axpyNibble(dst, src []Elem, nt *[64]Elem) {
	_ = dst[len(src)-1]
	for i, s := range src {
		dst[i] ^= nt[s&15] ^ nt[16+((s>>4)&15)] ^ nt[32+((s>>8)&15)] ^ nt[48+(s>>12)]
	}
}

// axpyByteFused is the portable table axpy: two independent 512-byte
// L1 lookups per element, no branches. dst and src must have equal,
// nonzero length.
func axpyByteFused(dst, src []Elem, b *[512]Elem) {
	lo := (*[256]Elem)(b[0:256])
	hi := (*[256]Elem)(b[256:512])
	_ = dst[len(src)-1]
	for i, s := range src {
		dst[i] ^= lo[uint8(s)] ^ hi[uint8(s>>8)]
	}
}

// axpyByteFused8 is the GF(2^8) portable table axpy: one L1 lookup
// per element.
func axpyByteFused8(dst, src []uint8, b *[256]uint8) {
	_ = dst[len(src)-1]
	for i, s := range src {
		dst[i] ^= b[s]
	}
}

// mulSliceScalar16 is the scalar log/exp axpy, used below the table
// thresholds and for SIMD tails. c must be nonzero.
func mulSliceScalar16(dst, src []Elem, c Elem) {
	lc := log16[c]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= exp16[lc+log16[s]]
		}
	}
}

func mulSliceScalar8(dst, src []uint8, c uint8) {
	lc := log8[c]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= exp8[lc+log8[s]]
		}
	}
}

// Below mulTableMinLenFuse16 the portable axpy reads the four nibble
// tables directly: expanding the 512 byte-fused entries does not
// amortize. Below mulTableMinLen8 a per-call GF(2^8) table build does
// not amortize and the scalar log/exp loop wins.
const (
	mulTableMinLenFuse16 = 512
	mulTableMinLen8      = 64
)

// MulTable holds the per-constant nibble-split tables for the GF(2^16)
// axpy kernel: the four 16-entry tables in the 128-byte VPSHUFB layout,
// which the AVX2 path consumes as is and the portable path unpacks (and,
// for long slices, fuses into byte tables) on the stack. Build one with
// Init (or NewMulTable) and call MulSliceTable16. Without GFNI the
// coefficient store behind MulSlice16 is one flat [65536]MulTable, which
// is why the type is exactly two cache lines and holds no pointer.
type MulTable struct {
	lut [128]byte // packNibbleLUT16 layout; entry 1 of nibble 0 is c·1 = c
}

// NewMulTable returns a built multiplication table for c.
func NewMulTable(c Elem) *MulTable {
	t := new(MulTable)
	t.Init(c)
	return t
}

// Init (re)builds the table for c.
func (t *MulTable) Init(c Elem) {
	var nt [64]Elem
	buildNibbleTables(nt[:], c, Mul)
	packNibbleLUT16(&nt, &t.lut)
}

// C returns the constant the table was built for (0 for a table never
// built): the table's own entry for c·1.
func (t *MulTable) C() Elem { return Elem(t.lut[1]) | Elem(t.lut[17])<<8 }

// At returns c·s, the scalar single-element view of the table.
func (t *MulTable) At(s Elem) Elem { return Mul(t.C(), s) }

// MulTable8 is MulTable over GF(2^8).
type MulTable8 struct {
	c   uint8
	lut [32]byte    // the two 16-entry nibble tables, VPSHUFB-ready
	b   *[256]uint8 // full product table; nil while the SIMD path is active
}

// NewMulTable8 returns a built GF(2^8) multiplication table for c.
func NewMulTable8(c uint8) *MulTable8 {
	t := new(MulTable8)
	t.Init(c)
	return t
}

// Init (re)builds the table for c.
func (t *MulTable8) Init(c uint8) {
	t.c = c
	var nt [32]uint8
	buildNibbleTables(nt[:], c, Mul8)
	if haveAsm {
		copy(t.lut[:], nt[:])
		return
	}
	if t.b == nil {
		t.b = new([256]uint8)
	}
	fuseByteTables8(&nt, t.b)
}

// At returns c·s.
func (t *MulTable8) At(s uint8) uint8 { return Mul8(t.c, s) }

// MulSlice16 computes dst[i] ^= c·src[i] over GF(2^16) for all i.
// This is the axpy kernel of the batched (N2 > 1) DP inner loop: one
// neighbor message updates a whole iteration-vector at once, which is
// the cache-locality effect the paper reports in Section IV-B.
// dst and src must have equal length.
//
// The kernel's per-constant form comes from the process-wide
// coefficient store (coeffstore.go), built on first use of c. Blocks of
// 16 run on the GFNI affine kernel where the CPU has GFNI (a ragged
// tail as one padded block), else on the AVX2 nibble kernel with a
// scalar log/exp tail, else on the portable table loops. A slice
// shorter than 16 on a SIMD path runs the scalar loop and leaves the
// store alone.
func MulSlice16(dst, src []Elem, c Elem) {
	if len(dst) != len(src) {
		panic("gf: MulSlice16 length mismatch")
	}
	if c == 0 || len(src) == 0 {
		return
	}
	n := len(src) &^ 15
	switch {
	case haveGFNI && n > 0:
		axpyAffine(dst, src, affineForm(c))
	case haveAsm && n == 0: // shorter than a block: no store slot to touch
		mulSliceScalar16(dst, src, c)
	default:
		axpyTable16(dst, src, lutForm(c), c)
	}
}

// MulSliceForm computes dst[i] ^= c·src[i] over GF(2^16) for all i,
// where f is c's form from FormsOf: MulSlice16 with the store read
// already done. dst and src must have equal length. With GFNI the
// whole slice runs on the affine kernel, a ragged tail as one padded
// block; elsewhere the form holds only c and this is
// MulSlice16(dst, src, c).
func MulSliceForm(dst, src []Elem, f *Form) {
	if len(dst) != len(src) {
		panic("gf: MulSliceForm length mismatch")
	}
	if len(src) == 0 {
		return
	}
	if haveGFNI {
		axpyAffine(dst, src, &f.m)
		return
	}
	MulSlice16(dst, src, Elem(f.m[0]))
}

// axpyAffine is the GFNI axpy with c's affine form m over a nonempty
// slice. A ragged tail runs as one zero-padded block on the stack, so
// with the form already loaded no element needs the scalar loop's
// log16[c] and per-element table reads.
func axpyAffine(dst, src []Elem, m *[4]uint64) {
	n := len(src) &^ 15
	if n > 0 {
		axpyAffineGFNI(&dst[0], &src[0], n, m)
	}
	if n < len(src) {
		var d, s [16]Elem
		copy(s[:], src[n:])
		t := copy(d[:], dst[n:])
		axpyAffineGFNI(&d[0], &s[0], 16, m)
		copy(dst[n:], d[:t])
	}
}

// MulSliceTable16 computes dst[i] ^= t.C()·src[i] using a prebuilt
// table: the nibble-table kernels of MulSlice16 without the store.
// dst and src must have equal length.
func MulSliceTable16(dst, src []Elem, t *MulTable) {
	if len(dst) != len(src) {
		panic("gf: MulSliceTable16 length mismatch")
	}
	if c := t.C(); c != 0 && len(src) != 0 {
		axpyTable16(dst, src, t, c)
	}
}

// axpyTable16 is the nibble-table axpy by t's constant c (nonzero) on
// a nonempty slice: the AVX2 kernel with a scalar tail, or without AVX2
// the portable nibble loop, byte-fused for long slices.
func axpyTable16(dst, src []Elem, t *MulTable, c Elem) {
	if haveAsm {
		if len(src) >= 16 {
			axpyLUT16(dst, src, &t.lut, c)
		} else {
			mulSliceScalar16(dst, src, c)
		}
		return
	}
	var nt [64]Elem
	unpackNibbleLUT16(&t.lut, &nt)
	if len(src) >= mulTableMinLenFuse16 {
		var b [512]Elem
		fuseByteTables(&nt, &b)
		axpyByteFused(dst, src, &b)
		return
	}
	axpyNibble(dst, src, &nt)
}

// MulSlice8 is MulSlice16 over GF(2^8): dst[i] ^= c·src[i]. Used by the
// field-width ablation (the paper's b = 3 + log2 k ≈ 8 choice).
func MulSlice8(dst, src []uint8, c uint8) {
	if len(dst) != len(src) {
		panic("gf: MulSlice8 length mismatch")
	}
	if c == 0 || len(src) == 0 {
		return
	}
	if len(src) >= mulTableMinLen8 {
		var nt [32]uint8
		buildNibbleTables(nt[:], c, Mul8)
		if haveAsm {
			axpyLUT8(dst, src, (*[32]byte)(nt[:]), c)
		} else {
			var b [256]uint8
			fuseByteTables8(&nt, &b)
			axpyByteFused8(dst, src, &b)
		}
		return
	}
	mulSliceScalar8(dst, src, c)
}

// MulSliceTable8 is MulSliceTable16 over GF(2^8).
func MulSliceTable8(dst, src []uint8, t *MulTable8) {
	if len(dst) != len(src) {
		panic("gf: MulSliceTable8 length mismatch")
	}
	if t.c == 0 || len(src) == 0 {
		return
	}
	if haveAsm {
		if len(src) >= 32 {
			axpyLUT8(dst, src, &t.lut, t.c)
		} else {
			mulSliceScalar8(dst, src, t.c)
		}
		return
	}
	axpyByteFused8(dst, src, t.b)
}

// HadamardInto computes dst[i] = a[i]·b[i] over GF(2^16).
// All three slices must have equal length (dst may alias a or b).
// Both operands vary, so there is no per-constant table to exploit:
// with GFNI, blocks of 16 run in the tower field of tower.go; the rest
// (the tail, or everything without GFNI) goes through the log/exp
// tables.
func HadamardInto(dst, a, b []Elem) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("gf: HadamardInto length mismatch")
	}
	if n := len(dst) &^ 15; haveGFNI && n > 0 {
		hadamardGFNI(&dst[0], &a[0], &b[0], n)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	for i := range dst {
		x, y := a[i], b[i]
		if x == 0 || y == 0 {
			dst[i] = 0
		} else {
			dst[i] = exp16[log16[x]+log16[y]]
		}
	}
}

// MulHadamardAccum computes dst[i] ^= a[i]·b[i] over GF(2^16); the
// fused kernel for the tree DP (P(i,j') ⊙ P(u,j”) accumulation).
func MulHadamardAccum(dst, a, b []Elem) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("gf: MulHadamardAccum length mismatch")
	}
	if n := len(dst) &^ 15; haveGFNI && n > 0 {
		hadamardAccumGFNI(&dst[0], &a[0], &b[0], n)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	for i := range dst {
		x, y := a[i], b[i]
		if x != 0 && y != 0 {
			dst[i] ^= exp16[log16[x]+log16[y]]
		}
	}
}

// MulHadamardAccumScaled computes dst[i] ^= c·a[i]·b[i] over GF(2^16);
// the fused kernel of the scan-statistics DP cell update. The GFNI
// kernel multiplies a by φ(c) in the tower field; the scalar loop does
// the triple product as a single lookup — exp16 carries three periods
// exactly so that log c + log a + log b needs no modular reduction.
func MulHadamardAccumScaled(dst, a, b []Elem, c Elem) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("gf: MulHadamardAccumScaled length mismatch")
	}
	if c == 0 {
		return
	}
	if n := len(dst) &^ 15; haveGFNI && n > 0 {
		hadamardAccumScaledGFNI(&dst[0], &a[0], &b[0], n, c)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	lc := log16[c]
	for i := range dst {
		x, y := a[i], b[i]
		if x != 0 && y != 0 {
			dst[i] ^= exp16[lc+log16[x]+log16[y]]
		}
	}
}

// MulHadamardAccumPeriodic computes dst[t] ^= a[t mod len(a)]·b[t] over
// GF(2^16): the product of b with a repeated to its length. It is the
// scan join's kernel, one local weight stratum of nb elements against
// a run of neighbour-sum strata (internal/mld/scanstat.go). dst and b
// must have equal length, a must be nonempty unless they are empty,
// and dst may alias b but not a. With GFNI, a period that divides 16
// is tiled into one 16-element block whose basis is changed once and
// b streams through it. Otherwise each period runs MulHadamardAccum:
// its GFNI kernel over a period's whole blocks, its scalar loop over
// the rest, which is all of a period shorter than 16.
func MulHadamardAccumPeriodic(dst, a, b []Elem) {
	if len(dst) != len(b) || len(a) == 0 && len(b) > 0 {
		panic("gf: MulHadamardAccumPeriodic length mismatch")
	}
	p := len(a)
	if n := len(b) &^ 15; haveGFNI && n > 0 && 16%p == 0 {
		var blk [16]Elem
		for l := copy(blk[:], a); l < 16; l *= 2 { // p divides 16: doubling tiles it
			copy(blk[l:], blk[:l])
		}
		hadamardAccumTiledGFNI(&dst[0], &blk[0], &b[0], n)
		dst, b = dst[n:], b[n:] // n is a multiple of p: the tail starts a period
	}
	for off := 0; off < len(b); off += p {
		end := min(off+p, len(b))
		MulHadamardAccum(dst[off:end], a[:end-off], b[off:end])
	}
}

// HadamardInto8 computes dst[i] = a[i]·b[i] over GF(2^8); with GFNI,
// blocks of 32 change basis into GF(2^8)/0x11B and back (tower.go).
func HadamardInto8(dst, a, b []uint8) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("gf: HadamardInto8 length mismatch")
	}
	if n := len(dst) &^ 31; haveGFNI && n > 0 {
		hadamard8GFNI(&dst[0], &a[0], &b[0], n)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	for i := range dst {
		x, y := a[i], b[i]
		if x == 0 || y == 0 {
			dst[i] = 0
		} else {
			dst[i] = exp8[log8[x]+log8[y]]
		}
	}
}

// AnyNonZero reports whether the slice has a nonzero element; used to
// skip dead DP cells cheaply. Unrolled OR accumulation: one branch per
// eight elements instead of one per element.
func AnyNonZero(s []Elem) bool {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		if s[i]|s[i+1]|s[i+2]|s[i+3]|s[i+4]|s[i+5]|s[i+6]|s[i+7] != 0 {
			return true
		}
	}
	var v Elem
	for ; i < len(s); i++ {
		v |= s[i]
	}
	return v != 0
}

// AnyNonZero8 is AnyNonZero for GF(2^8) slices.
func AnyNonZero8(s []uint8) bool {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		if s[i]|s[i+1]|s[i+2]|s[i+3]|s[i+4]|s[i+5]|s[i+6]|s[i+7] != 0 {
			return true
		}
	}
	var v uint8
	for ; i < len(s); i++ {
		v |= s[i]
	}
	return v != 0
}
