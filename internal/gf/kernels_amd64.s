//go:build amd64

#include "textflag.h"

// AVX2 nibble-split GF axpy kernels, the GFNI affine axpy and the GFNI
// Hadamard kernels. See kernels.go for the table construction, tower.go
// for the GFNI matrices and kernels_amd64.go for dispatch.

// 0x000F in every 16-bit lane: extracts one nibble per element.
DATA nibMask16<>+0(SB)/8, $0x000F000F000F000F
DATA nibMask16<>+8(SB)/8, $0x000F000F000F000F
DATA nibMask16<>+16(SB)/8, $0x000F000F000F000F
DATA nibMask16<>+24(SB)/8, $0x000F000F000F000F
GLOBL nibMask16<>(SB), RODATA|NOPTR, $32

// 0x0F in every byte: extracts the low nibble of every element.
DATA nibMask8<>+0(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask8<>+8(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask8<>+16(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask8<>+24(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL nibMask8<>(SB), RODATA|NOPTR, $32

// func axpyNibbleAVX2(dst, src *Elem, n int, tab *[128]byte)
//
// 16 uint16 elements per iteration. For each of the four nibbles j,
// the index vector holds the nibble value in the even (low) byte of
// every 16-bit lane and zero in the odd byte; VPSHUFB against the
// low-byte table Y(2j) and the high-byte table Y(2j+1) yields the two
// result halves (index 0 maps to table entry 0, which is 0, so the odd
// lanes contribute nothing), and the high half is shifted into the odd
// byte before XOR-accumulation.
TEXT ·axpyNibbleAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), BX

	VBROADCASTI128 0(BX), Y0    // nibble 0, low result bytes
	VBROADCASTI128 16(BX), Y1   // nibble 0, high result bytes
	VBROADCASTI128 32(BX), Y2   // nibble 1, low
	VBROADCASTI128 48(BX), Y3   // nibble 1, high
	VBROADCASTI128 64(BX), Y4   // nibble 2, low
	VBROADCASTI128 80(BX), Y5   // nibble 2, high
	VBROADCASTI128 96(BX), Y6   // nibble 3, low
	VBROADCASTI128 112(BX), Y7  // nibble 3, high
	VMOVDQU nibMask16<>(SB), Y8

loop16:
	VMOVDQU (SI), Y9

	VPAND   Y9, Y8, Y10         // nibble 0 indexes
	VPSHUFB Y10, Y0, Y11
	VPSHUFB Y10, Y1, Y12
	VPSLLW  $8, Y12, Y12
	VPXOR   Y11, Y12, Y13

	VPSRLW  $4, Y9, Y10         // nibble 1
	VPAND   Y10, Y8, Y10
	VPSHUFB Y10, Y2, Y11
	VPSHUFB Y10, Y3, Y12
	VPSLLW  $8, Y12, Y12
	VPXOR   Y11, Y13, Y13
	VPXOR   Y12, Y13, Y13

	VPSRLW  $8, Y9, Y10         // nibble 2
	VPAND   Y10, Y8, Y10
	VPSHUFB Y10, Y4, Y11
	VPSHUFB Y10, Y5, Y12
	VPSLLW  $8, Y12, Y12
	VPXOR   Y11, Y13, Y13
	VPXOR   Y12, Y13, Y13

	VPSRLW  $12, Y9, Y10        // nibble 3 (shift leaves only 4 bits)
	VPSHUFB Y10, Y6, Y11
	VPSHUFB Y10, Y7, Y12
	VPSLLW  $8, Y12, Y12
	VPXOR   Y11, Y13, Y13
	VPXOR   Y12, Y13, Y13

	VMOVDQU (DI), Y14
	VPXOR   Y13, Y14, Y14
	VMOVDQU Y14, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $16, CX
	JNZ  loop16
	VZEROUPPER
	RET

// func axpyNibble8AVX2(dst, src *uint8, n int, tab *[32]byte)
//
// 32 uint8 elements per iteration: low and high nibbles are looked up
// in their 16-entry tables and XORed.
TEXT ·axpyNibble8AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), BX

	VBROADCASTI128 0(BX), Y0    // low-nibble products c·n
	VBROADCASTI128 16(BX), Y1   // high-nibble products c·(n<<4)
	VMOVDQU nibMask8<>(SB), Y2

loop8:
	VMOVDQU (SI), Y3
	VPAND   Y3, Y2, Y4          // low nibbles
	VPSRLW  $4, Y3, Y5
	VPAND   Y5, Y2, Y5          // high nibbles
	VPSHUFB Y4, Y0, Y4
	VPSHUFB Y5, Y1, Y5
	VPXOR   Y4, Y5, Y4
	VMOVDQU (DI), Y6
	VPXOR   Y4, Y6, Y6
	VMOVDQU Y6, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  loop8
	VZEROUPPER
	RET

// GFNI kernels. tower.go derives the matrices in ·gfniMat
// (field offsets: toT1 0, toT2 32, back1 64, back2 96, back3 128,
// lam 160, to8 192, from8 224) and explains the tower field T.
// "swap" below is VPSHUFD $0x4E, which exchanges the two qwords of
// each 128-bit lane.

// Per 128-bit lane: gather the 8 low bytes of the 8 uint16 elements
// into qword 0 and the 8 high bytes into qword 1 ...
DATA gfniSplit<>+0(SB)/8, $0x0E0C0A0806040200
DATA gfniSplit<>+8(SB)/8, $0x0F0D0B0907050301
DATA gfniSplit<>+16(SB)/8, $0x0E0C0A0806040200
DATA gfniSplit<>+24(SB)/8, $0x0F0D0B0907050301
GLOBL gfniSplit<>(SB), RODATA|NOPTR, $32

// ... and interleave them back.
DATA gfniJoin<>+0(SB)/8, $0x0B030A0209010800
DATA gfniJoin<>+8(SB)/8, $0x0F070E060D050C04
DATA gfniJoin<>+16(SB)/8, $0x0B030A0209010800
DATA gfniJoin<>+24(SB)/8, $0x0F070E060D050C04
GLOBL gfniJoin<>(SB), RODATA|NOPTR, $32

// Y15 split, Y14 join, Y12/Y13 φ, Y9/Y10/Y11 φ⁻¹.
#define GFNI_LOAD_CONSTS \
	VMOVDQU gfniSplit<>(SB), Y15; \
	VMOVDQU gfniJoin<>(SB), Y14; \
	VMOVDQU ·gfniMat+0(SB), Y12; \
	VMOVDQU ·gfniMat+32(SB), Y13; \
	VMOVDQU ·gfniMat+64(SB), Y9; \
	VMOVDQU ·gfniMat+96(SB), Y10; \
	VMOVDQU ·gfniMat+128(SB), Y11

// TO_TOWER maps 16 split elements in x to T = [t0 | t1] per lane
// (x ← aff(x, [M00|M11]) ⊕ swap(aff(x, [M10|M01]))); tmp is clobbered.
#define TO_TOWER(x, tmp) \
	VGF2P8AFFINEQB $0, Y13, x, tmp; \
	VGF2P8AFFINEQB $0, Y12, x, x; \
	VPSHUFD $0x4E, tmp, tmp; \
	VPXOR tmp, x, x

// TOWER_MUL_BACK multiplies ta, tb in T by Karatsuba and leaves the
// product in ta, back in the GF(2)[x]/Poly16 basis and interleaved:
// P = ta·tb = [p0 | p1], Q = (a0+a1)(b0+b1) = [p2 | p2], then
// ta ← join(aff(P, back1) ⊕ swap(aff(P, back2)) ⊕ aff(Q, back3)).
#define TOWER_MUL_BACK(ta, tb, t1, t2) \
	VPSHUFD $0x4E, ta, t1; \
	VPXOR ta, t1, t1; \
	VPSHUFD $0x4E, tb, t2; \
	VPXOR tb, t2, t2; \
	VGF2P8MULB tb, ta, ta; \
	VGF2P8MULB t2, t1, t1; \
	VGF2P8AFFINEQB $0, Y10, ta, t2; \
	VGF2P8AFFINEQB $0, Y9, ta, ta; \
	VGF2P8AFFINEQB $0, Y11, t1, t1; \
	VPSHUFD $0x4E, t2, t2; \
	VPXOR t1, ta, ta; \
	VPXOR t2, ta, ta; \
	VPSHUFB Y14, ta, ta

// LOAD_AB loads 16 elements of a and b and maps them into T (Y0, Y1).
#define LOAD_AB \
	VMOVDQU (SI), Y0; \
	VMOVDQU (DX), Y1; \
	VPSHUFB Y15, Y0, Y0; \
	VPSHUFB Y15, Y1, Y1; \
	TO_TOWER(Y0, Y2); \
	TO_TOWER(Y1, Y3)

#define GFNI_ARGS \
	MOVQ dst+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ n+24(FP), CX

#define GFNI_NEXT16(label) \
	ADDQ $32, SI; \
	ADDQ $32, DX; \
	ADDQ $32, DI; \
	SUBQ $16, CX; \
	JNZ  label

// func axpyAffineGFNI(dst, src *Elem, n int, m *[4]uint64)
//
// dst[i] ^= c·src[i] over GF(2^16); n > 0, n % 16 == 0. m = [M00, M11,
// M10, M01] is the split form of x ↦ c·x (affineMulMatrix); broadcast
// to both lanes it is exactly the Y12/Y13 pair TO_TOWER applies.
TEXT ·axpyAffineGFNI(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ m+24(FP), BX
	VMOVDQU gfniSplit<>(SB), Y15
	VMOVDQU gfniJoin<>(SB), Y14
	VBROADCASTI128 0(BX), Y12   // [M00 | M11]
	VBROADCASTI128 16(BX), Y13  // [M10 | M01]

	TESTQ $16, CX               // odd block count: one block first
	JZ    affPairs
	VMOVDQU (SI), Y0
	VPSHUFB Y15, Y0, Y0
	TO_TOWER(Y0, Y1)
	VPSHUFB Y14, Y0, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $16, CX
	JZ   affDone

affPairs:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y2
	VPSHUFB Y15, Y0, Y0
	VPSHUFB Y15, Y2, Y2
	TO_TOWER(Y0, Y1)
	TO_TOWER(Y2, Y3)
	VPSHUFB Y14, Y0, Y0
	VPSHUFB Y14, Y2, Y2
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y2, Y2
	VMOVDQU Y0, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $32, CX
	JNZ  affPairs

affDone:
	VZEROUPPER
	RET

// func hadamardGFNI(dst, a, b *Elem, n int)
//
// dst[i] = a[i]·b[i] over GF(2^16); n > 0, n % 16 == 0.
TEXT ·hadamardGFNI(SB), NOSPLIT, $0-32
	GFNI_ARGS
	GFNI_LOAD_CONSTS

hadLoop:
	LOAD_AB
	TOWER_MUL_BACK(Y0, Y1, Y2, Y3)
	VMOVDQU Y0, (DI)
	GFNI_NEXT16(hadLoop)
	VZEROUPPER
	RET

// func hadamardAccumGFNI(dst, a, b *Elem, n int)
//
// dst[i] ^= a[i]·b[i] over GF(2^16); n > 0, n % 16 == 0.
TEXT ·hadamardAccumGFNI(SB), NOSPLIT, $0-32
	GFNI_ARGS
	GFNI_LOAD_CONSTS

accLoop:
	LOAD_AB
	TOWER_MUL_BACK(Y0, Y1, Y2, Y3)
	VPXOR (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	GFNI_NEXT16(accLoop)
	VZEROUPPER
	RET

// func hadamardAccumTiledGFNI(dst, a, b *Elem, n int)
//
// dst[i] ^= a[i mod 16]·b[i] over GF(2^16); n > 0, n % 16 == 0. The
// block a is loaded and mapped into T once (Y4); each iteration maps
// only b.
TEXT ·hadamardAccumTiledGFNI(SB), NOSPLIT, $0-32
	GFNI_ARGS
	GFNI_LOAD_CONSTS
	VMOVDQU (SI), Y4
	VPSHUFB Y15, Y4, Y4
	TO_TOWER(Y4, Y2)

tiledLoop:
	VMOVDQU (DX), Y1
	VPSHUFB Y15, Y1, Y1
	TO_TOWER(Y1, Y3)
	VMOVDQU Y4, Y0
	TOWER_MUL_BACK(Y0, Y1, Y2, Y3)
	VPXOR (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $16, CX
	JNZ  tiledLoop
	VZEROUPPER
	RET

// func hadamardAccumScaledGFNI(dst, a, b *Elem, n int, c Elem)
//
// dst[i] ^= c·a[i]·b[i] over GF(2^16); n > 0, n % 16 == 0. φ(c) =
// [c0 | c1] is computed in-register from a broadcast of c, and a is
// multiplied by it in T before the product with b:
// a·c = [a0·c0 + a1·λc1 | a0·c1 + a1·(c0+c1)]
//     = ta·K1 ⊕ swap(ta)·K2 with K1 = [c0 | c0+c1], K2 = [λc1 | c1].
TEXT ·hadamardAccumScaledGFNI(SB), NOSPLIT, $0-34
	GFNI_ARGS
	GFNI_LOAD_CONSTS
	MOVWLZX c+32(FP), AX
	VMOVD   AX, X7
	VPBROADCASTW X7, Y7
	VPSHUFB Y15, Y7, Y7
	TO_TOWER(Y7, Y8)            // Y7 = [c0 | c1]
	VPSHUFD  $0x4E, Y7, Y0      // [c1 | c0]
	VPXOR    Y0, Y7, Y1         // [c0+c1 | c0+c1]
	VPBLENDD $0xCC, Y7, Y0, Y8  // [c1 | c1]
	VPBLENDD $0xCC, Y1, Y7, Y7  // K1 = [c0 | c0+c1]
	VMOVDQU  ·gfniMat+160(SB), Y0
	VGF2P8MULB Y0, Y8, Y8       // K2 = [λc1 | c1]

scaledLoop:
	LOAD_AB
	VPSHUFD $0x4E, Y0, Y2
	VGF2P8MULB Y7, Y0, Y0
	VGF2P8MULB Y8, Y2, Y2
	VPXOR   Y2, Y0, Y0          // ta ← ta·φ(c)
	TOWER_MUL_BACK(Y0, Y1, Y2, Y3)
	VPXOR (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	GFNI_NEXT16(scaledLoop)
	VZEROUPPER
	RET

// func hadamard8GFNI(dst, a, b *uint8, n int)
//
// dst[i] = a[i]·b[i] over GF(2)[x]/Poly8; n > 0, n % 32 == 0. One
// affine per operand into GF(2^8)/0x11B, one GF2P8MULB, one back.
TEXT ·hadamard8GFNI(SB), NOSPLIT, $0-32
	GFNI_ARGS
	VMOVDQU ·gfniMat+192(SB), Y4
	VMOVDQU ·gfniMat+224(SB), Y5

had8Loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VGF2P8AFFINEQB $0, Y4, Y0, Y0
	VGF2P8AFFINEQB $0, Y4, Y1, Y1
	VGF2P8MULB Y1, Y0, Y0
	VGF2P8AFFINEQB $0, Y5, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  had8Loop
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
