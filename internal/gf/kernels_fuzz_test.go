package gf

import (
	"testing"

	"github.com/midas-hpc/midas/internal/rng"
)

// Property tests pinning every slice kernel byte-identical to a naive
// scalar reference built directly on Mul/Mul8, across all lengths
// 0..129 (covering the empty, sub-threshold, SIMD-block and ragged-tail
// regimes), with aliased dst, and on every reachable dispatch path:
// portable (haveAsm and haveGFNI forced false), AVX2 without GFNI, and
// AVX2 with the GFNI axpy and Hadamard kernels. haveAsm and haveGFNI are
// variables on every architecture precisely so these tests can flip
// them.

// refAxpy16 is dst[i] ^= c·src[i] straight from Mul.
func refAxpy16(dst, src []Elem, c Elem) {
	for i := range src {
		dst[i] ^= Mul(c, src[i])
	}
}

func refAxpy8(dst, src []uint8, c uint8) {
	for i := range src {
		dst[i] ^= Mul8(c, src[i])
	}
}

func randSlice16(r *rng.Rand, n int) []Elem {
	s := make([]Elem, n)
	for i := range s {
		v := Elem(r.Uint32())
		if r.Intn(4) == 0 {
			v = 0 // make zeros common: they take dedicated branches
		}
		s[i] = v
	}
	return s
}

func randSlice8(r *rng.Rand, n int) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		v := uint8(r.Uint32())
		if r.Intn(4) == 0 {
			v = 0
		}
		s[i] = v
	}
	return s
}

// forEachPath calls fn under every reachable dispatch setting —
// "portable", "asm" (AVX2 nibble axpy, scalar Hadamard) and "gfni"
// (AVX2 plus the GFNI axpy and Hadamard kernels) — and then restores
// the detected one. A path only exists where the detector found it, so
// on machines without AVX2 (and on non-amd64) only the portable path
// runs.
func forEachPath(fn func(path string)) {
	asm, gfni := haveAsm, haveGFNI
	defer func() { haveAsm, haveGFNI = asm, gfni }()
	haveAsm, haveGFNI = false, false
	fn("portable")
	if asm {
		haveAsm = true
		fn("asm")
	}
	if gfni {
		haveGFNI = true
		fn("gfni")
	}
}

// logPaths logs the dispatch paths this machine reaches, so a verbose
// run shows what the path-parameterized tests and fuzzers covered: a
// machine without GFNI (or without AVX2) never runs those kernels.
func logPaths(tb testing.TB) {
	var paths []string
	forEachPath(func(path string) { paths = append(paths, path) })
	tb.Logf("dispatch paths on this machine: %v", paths)
}

// withBothPaths runs fn as one subtest per reachable dispatch setting.
func withBothPaths(t *testing.T, fn func(t *testing.T)) {
	forEachPath(func(path string) { t.Run(path, fn) })
}

func TestKernelMulSlice16BothPaths(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		r := rng.New(101)
		for n := 0; n <= 129; n++ {
			for trial := 0; trial < 4; trial++ {
				c := Elem(r.Uint32())
				if trial == 0 {
					c = 0
				}
				src := randSlice16(r, n)
				dst := randSlice16(r, n)
				want := append([]Elem(nil), dst...)
				refAxpy16(want, src, c)
				MulSlice16(dst, src, c)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("n=%d c=%#x [%d]: got %#x want %#x", n, c, i, dst[i], want[i])
					}
				}
				// aliased: dst and src are the same slice
				al := append([]Elem(nil), src...)
				wal := append([]Elem(nil), src...)
				refAxpy16(wal, append([]Elem(nil), src...), c)
				MulSlice16(al, al, c)
				for i := range al {
					if al[i] != wal[i] {
						t.Fatalf("aliased n=%d c=%#x [%d]: got %#x want %#x", n, c, i, al[i], wal[i])
					}
				}
			}
		}
	})
}

// TestMulSliceFormMatchesScalar pins MulSliceForm to the scalar
// reference at every length 0–600 (so every tail 1–15 after zero to 37
// blocks), at c = 0, c = 1 and random c, aliased dst included, with the
// forms built under each dispatch path and read back through FormsIn
// from a []Elem slab, as the DP's form buffers are.
func TestMulSliceFormMatchesScalar(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		r := rng.New(107)
		cs := []Elem{0, 1, Elem(r.Uint32()), Elem(r.Uint32()) | 0x8000}
		forms := FormsIn(make([]Elem, len(cs)*FormElems))
		FormsOf(forms, cs)
		for n := 0; n <= 600; n++ {
			src := randSlice16(r, n)
			dst := randSlice16(r, n)
			for i, c := range cs {
				want := append([]Elem(nil), dst...)
				refAxpy16(want, src, c)
				got := append([]Elem(nil), dst...)
				MulSliceForm(got, src, &forms[i])
				wantAl := append([]Elem(nil), src...)
				refAxpy16(wantAl, src, c)
				al := append([]Elem(nil), src...)
				MulSliceForm(al, al, &forms[i])
				for j := range got {
					if got[j] != want[j] || al[j] != wantAl[j] {
						t.Fatalf("n=%d c=%#x [%d]: got %#x (aliased %#x) want %#x (%#x)",
							n, c, j, got[j], al[j], want[j], wantAl[j])
					}
				}
			}
		}
	})
}

func TestMulSliceTable16MatchesScalar(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		r := rng.New(102)
		// 0–129 covers the scalar, SIMD-tail and portable nibble forms;
		// the lengths past mulTableMinLenFuse16 cover the portable
		// path's stack-fused byte tables.
		lengths := []int{mulTableMinLenFuse16, mulTableMinLenFuse16 + 1, 600}
		for n := 0; n <= 129; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			c := Elem(r.Uint32())
			if n%17 == 0 {
				c = 0
			}
			tab := NewMulTable(c)
			src := randSlice16(r, n)
			dst := randSlice16(r, n)
			want := append([]Elem(nil), dst...)
			refAxpy16(want, src, c)
			MulSliceTable16(dst, src, tab)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d c=%#x [%d]: got %#x want %#x", n, c, i, dst[i], want[i])
				}
			}
			if tab.C() != c {
				t.Fatalf("table C() = %#x, want %#x", tab.C(), c)
			}
			if s := Elem(r.Uint32()); tab.At(s) != Mul(c, s) {
				t.Fatalf("table At(%#x) = %#x, want %#x", s, tab.At(s), Mul(c, s))
			}
		}
	})
}

func TestMulSlice8MatchesScalar(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		r := rng.New(103)
		for n := 0; n <= 129; n++ {
			for trial := 0; trial < 4; trial++ {
				c := uint8(r.Uint32())
				if trial == 0 {
					c = 0
				}
				src := randSlice8(r, n)
				dst := randSlice8(r, n)
				want := append([]uint8(nil), dst...)
				refAxpy8(want, src, c)
				MulSlice8(dst, src, c)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("n=%d c=%#x [%d]: got %#x want %#x", n, c, i, dst[i], want[i])
					}
				}
				al := append([]uint8(nil), src...)
				wal := append([]uint8(nil), src...)
				refAxpy8(wal, append([]uint8(nil), src...), c)
				MulSlice8(al, al, c)
				for i := range al {
					if al[i] != wal[i] {
						t.Fatalf("aliased n=%d c=%#x [%d]: got %#x want %#x", n, c, i, al[i], wal[i])
					}
				}
			}
		}
	})
}

func TestMulSliceTable8MatchesScalar(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		r := rng.New(104)
		for n := 0; n <= 129; n++ {
			c := uint8(r.Uint32())
			if n%17 == 0 {
				c = 0
			}
			tab := NewMulTable8(c)
			src := randSlice8(r, n)
			dst := randSlice8(r, n)
			want := append([]uint8(nil), dst...)
			refAxpy8(want, src, c)
			MulSliceTable8(dst, src, tab)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d c=%#x [%d]: got %#x want %#x", n, c, i, dst[i], want[i])
				}
			}
		}
	})
}

// checkHadamard16 runs the three GF(2^16) Hadamard kernels on
// (dst, a, b, c) and compares them with Mul, with dst separate and
// aliased to a and to b; path names the dispatch setting in failures.
func checkHadamard16(t *testing.T, path string, dst, a, b []Elem, c Elem) {
	t.Helper()
	kernels := []struct {
		name string
		run  func(dst, a, b []Elem)
		want func(d, x, y Elem) Elem
	}{
		{"HadamardInto", HadamardInto, func(_, x, y Elem) Elem { return Mul(x, y) }},
		{"MulHadamardAccum", MulHadamardAccum, func(d, x, y Elem) Elem { return d ^ Mul(x, y) }},
		{"MulHadamardAccumScaled", func(dst, a, b []Elem) { MulHadamardAccumScaled(dst, a, b, c) },
			func(d, x, y Elem) Elem { return d ^ Mul(c, Mul(x, y)) }},
	}
	for _, k := range kernels {
		for _, alias := range []string{"none", "dst==a", "dst==b"} {
			x, y := append([]Elem(nil), a...), append([]Elem(nil), b...)
			got := append([]Elem(nil), dst...)
			switch alias {
			case "dst==a":
				x = got
			case "dst==b":
				y = got
			}
			want := make([]Elem, len(got))
			for i := range want {
				want[i] = k.want(got[i], x[i], y[i])
			}
			k.run(got, x, y)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %s %s n=%d c=%#x [%d]: got %#x want %#x", path, k.name, alias, len(got), c, i, got[i], want[i])
				}
			}
		}
	}
}

// checkPeriodic16 runs MulHadamardAccumPeriodic on (dst, a, b) and
// compares it with Mul, with dst separate and aliased to b (the kernel
// forbids aliasing a, which is shorter); path names the dispatch
// setting in failures.
func checkPeriodic16(t *testing.T, path string, dst, a, b []Elem) {
	t.Helper()
	for _, alias := range []string{"none", "dst==b"} {
		y := append([]Elem(nil), b...)
		got := append([]Elem(nil), dst...)
		if alias == "dst==b" {
			y = got
		}
		want := make([]Elem, len(got))
		for i := range want {
			want[i] = got[i] ^ Mul(a[i%len(a)], y[i])
		}
		MulHadamardAccumPeriodic(got, a, y)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s MulHadamardAccumPeriodic %s n=%d period=%d [%d]: got %#x want %#x", path, alias, len(got), len(a), i, got[i], want[i])
			}
		}
	}
}

func checkHadamard8(t *testing.T, path string, dst, a, b []uint8) {
	t.Helper()
	want := make([]uint8, len(dst))
	for i := range want {
		want[i] = Mul8(a[i], b[i])
	}
	HadamardInto8(dst, a, b)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("%s HadamardInto8 n=%d [%d]: got %#x want %#x", path, len(dst), i, dst[i], want[i])
		}
	}
}

func TestHadamardKernelsMatchScalar(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		r := rng.New(105)
		for n := 0; n <= 129; n++ {
			c := Elem(r.Uint32())
			if n%17 == 0 {
				c = 0
			}
			checkHadamard16(t, t.Name(), randSlice16(r, n), randSlice16(r, n), randSlice16(r, n), c)
			checkHadamard8(t, t.Name(), randSlice8(r, n), randSlice8(r, n), randSlice8(r, n))
		}
	})
}

// TestHadamardPeriodicMatchesScalar covers MulHadamardAccumPeriodic's
// three regimes on every path: periods that divide 16 (the tiled GFNI
// block), multiples of 16 (one MulHadamardAccum per period) and the
// rest (3, 12, 24: per-period calls with ragged blocks), each at every
// length 0..129 so the tail starts at every phase.
func TestHadamardPeriodicMatchesScalar(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		r := rng.New(107)
		for _, p := range []int{1, 2, 3, 4, 8, 12, 16, 24, 32, 64} {
			a := randSlice16(r, p)
			for n := 0; n <= 129; n++ {
				checkPeriodic16(t, t.Name(), randSlice16(r, n), a, randSlice16(r, n))
			}
		}
	})
}

// TestHadamardGFNIBasisPairs proves the GFNI GF(2^16) kernels equal to
// Mul on every input, not just sampled ones. A 16-element block of the
// kernel is GF(2)-bilinear in (a, b) — every step is a linear
// VGF2P8AFFINEQB (immediate 0), a shuffle, an XOR or the bilinear
// GF2P8MULB — and the scaled kernel is trilinear in (a, b, c). A
// bilinear map is fixed by its values on pairs of basis vectors, so
// it suffices to put x^i at position p of a and x^j at position q of b,
// for all 256 (p, i) and all 256 (q, j), and require Mul(x^i, x^j) at
// position p when p == q and zero everywhere else; with c also running
// over x^0..x^15 for the scaled kernel. The 16-element block is the
// only unit the kernels have: longer slices loop over it and tails run
// the scalar loop.
func TestHadamardGFNIBasisPairs(t *testing.T) {
	if !haveGFNI {
		t.Skip("no GFNI on this machine")
	}
	var a, b, dst [16]Elem
	for p := 0; p < 16; p++ {
		for i := 0; i < 16; i++ {
			for q := 0; q < 16; q++ {
				for j := 0; j < 16; j++ {
					a, b = [16]Elem{}, [16]Elem{}
					a[p], b[q] = 1<<i, 1<<j
					var prod Elem
					if p == q {
						prod = Mul(1<<i, 1<<j)
					}
					check := func(kernel string, scale Elem) {
						for r := range dst {
							want := Elem(0)
							if r == p {
								want = Mul(scale, prod)
							}
							if dst[r] != want {
								t.Fatalf("%s c=%#x a[%d]=x^%d b[%d]=x^%d: dst[%d]=%#x want %#x", kernel, scale, p, i, q, j, r, dst[r], want)
							}
						}
					}
					for r := range dst {
						dst[r] = 0xA5A5 // HadamardInto must overwrite
					}
					hadamardGFNI(&dst[0], &a[0], &b[0], 16)
					check("HadamardInto", 1)
					dst = [16]Elem{}
					hadamardAccumGFNI(&dst[0], &a[0], &b[0], 16)
					check("MulHadamardAccum", 1)
					for k := 0; k < 16; k++ {
						dst = [16]Elem{}
						hadamardAccumScaledGFNI(&dst[0], &a[0], &b[0], 16, 1<<k)
						check("MulHadamardAccumScaled", 1<<k)
					}
				}
			}
		}
	}
}

// TestHadamardTiledGFNIBasisPairs is TestHadamardGFNIBasisPairs for
// the tiled kernel behind MulHadamardAccumPeriodic: it is bilinear in
// the 16-element block a and the streamed b, so x^i at position p of a
// against x^j at position q of a two-block b must give Mul(x^i, x^j) at
// position q when q mod 16 == p and zero everywhere else. Two blocks of
// b prove that the block is reused, not advanced, as b streams.
func TestHadamardTiledGFNIBasisPairs(t *testing.T) {
	if !haveGFNI {
		t.Skip("no GFNI on this machine")
	}
	var a [16]Elem
	var b, dst [32]Elem
	for p := 0; p < 16; p++ {
		for i := 0; i < 16; i++ {
			for q := 0; q < 32; q++ {
				for j := 0; j < 16; j++ {
					a, b, dst = [16]Elem{}, [32]Elem{}, [32]Elem{}
					a[p], b[q] = 1<<i, 1<<j
					hadamardAccumTiledGFNI(&dst[0], &a[0], &b[0], 32)
					for r := range dst {
						want := Elem(0)
						if r == q && q%16 == p {
							want = Mul(1<<i, 1<<j)
						}
						if dst[r] != want {
							t.Fatalf("a[%d]=x^%d b[%d]=x^%d: dst[%d]=%#x want %#x", p, i, q, j, r, dst[r], want)
						}
					}
				}
			}
		}
	}
}

// TestMulSlice16UnitVectors proves MulSlice16 for every nonzero c on
// every reachable dispatch path. Multiplication by c is GF(2)-linear,
// so a kernel that maps each unit vector x^b, at each of the 16
// positions of a block, to Mul(c, x^b) at that position and to zero
// elsewhere agrees with Mul on every input (as TestHadamardGFNIBasisPairs
// argues for the Hadamard kernels). One 4096-element slice holds the 256
// (position, bit) pairs, one per 16-element block, and so also reaches
// the portable path's byte-fused loop. Its first 272 elements (x^b at
// element 16b, then one more block) reach the portable direct nibble
// loop and an odd number of SIMD blocks.
func TestMulSlice16UnitVectors(t *testing.T) {
	units := make([]Elem, 256*16)
	for blk := range 256 {
		units[blk*16+blk/16] = 1 << (blk % 16)
	}
	dst := make([]Elem, len(units))
	withBothPaths(t, func(t *testing.T) {
		for c := 1; c < 1<<16; c++ {
			var prod [16]Elem
			for b := range prod {
				prod[b] = Mul(Elem(c), 1<<b)
			}
			for _, n := range []int{272, len(units)} {
				clear(dst)
				MulSlice16(dst[:n], units[:n], Elem(c))
				for blk := 0; blk < n/16; blk++ {
					dst[blk*16+blk/16] ^= prod[blk%16] // zero where right
				}
				if !AnyNonZero(dst) {
					continue
				}
				for i, v := range dst {
					if v != 0 {
						blk := i / 16
						t.Fatalf("c=%#x n=%d: block %d (x^%d at position %d) is off by %#x at position %d",
							c, n, blk, blk%16, blk/16, v, i%16)
					}
				}
			}
		}
	})
}

// TestHadamardGFNIAllPairs checks the GFNI HadamardInto against the
// log/exp tables on all 2^32 operand pairs: for each a, b runs over
// Exp(0..Order16−1) and 0, so Mul(a, b) is exp16[log a + e] read
// sequentially.
func TestHadamardGFNIAllPairs(t *testing.T) {
	if !haveGFNI {
		t.Skip("no GFNI on this machine")
	}
	if testing.Short() {
		t.Skip("2^32 products take ~10 s")
	}
	b := make([]Elem, 1<<16)
	for e := 0; e < Order16; e++ {
		b[e] = Exp(uint32(e))
	}
	a, dst := make([]Elem, 1<<16), make([]Elem, 1<<16)
	for x := 0; x < 1<<16; x++ {
		for i := range a {
			a[i] = Elem(x)
		}
		HadamardInto(dst, a, b)
		if dst[Order16] != 0 {
			t.Fatalf("%#x·0 = %#x", x, dst[Order16])
		}
		if x == 0 {
			for e, v := range dst {
				if v != 0 {
					t.Fatalf("0·%#x = %#x", b[e], v)
				}
			}
			continue
		}
		want := exp16[log16[x]:]
		for e, v := range dst[:Order16] {
			if v != want[e] {
				t.Fatalf("%#x·%#x = %#x, want %#x", x, b[e], v, want[e])
			}
		}
	}
}

// TestHadamardInto8AllPairs checks HadamardInto8 on all 2^16 operand
// pairs, on every reachable path.
func TestHadamardInto8AllPairs(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		a, b := make([]uint8, 1<<16), make([]uint8, 1<<16)
		for i := range a {
			a[i], b[i] = uint8(i), uint8(i>>8)
		}
		checkHadamard8(t, t.Name(), make([]uint8, 1<<16), a, b)
	})
}

func TestAnyNonZeroMatchesScan(t *testing.T) {
	r := rng.New(106)
	for n := 0; n <= 129; n++ {
		s := make([]Elem, n)
		if AnyNonZero(s) {
			t.Fatalf("n=%d: all-zero slice reported nonzero", n)
		}
		s8 := make([]uint8, n)
		if AnyNonZero8(s8) {
			t.Fatalf("n=%d: all-zero uint8 slice reported nonzero", n)
		}
		if n > 0 {
			at := r.Intn(n)
			s[at] = Elem(r.Uint32()) | 1
			if !AnyNonZero(s) {
				t.Fatalf("n=%d: nonzero at %d missed", n, at)
			}
			s8[at] = uint8(r.Uint32()) | 1
			if !AnyNonZero8(s8) {
				t.Fatalf("n=%d: uint8 nonzero at %d missed", n, at)
			}
		}
	}
}

// FuzzMulSlice16Kernel drives MulSlice16 (the coefficient-store axpy),
// MulSliceForm (the same axpy from a form FormsOf gathered) and
// MulSliceTable16 with a random constant, contents, length (up to 600,
// past the portable path's byte-fusing threshold, so every tail 1–15
// occurs) and a slice offset (so blocks start at every alignment)
// through every reachable dispatch path, aliased dst included. The form
// is built under each path, as a sweep builds it under the one it runs.
func FuzzMulSlice16Kernel(f *testing.F) {
	f.Add(uint16(0), uint64(1), 7, uint8(0))
	f.Add(uint16(1), uint64(0xdeadbeef), 48, uint8(3))
	f.Add(uint16(0x8000), uint64(42), 129, uint8(31))
	f.Add(uint16(1), uint64(5), 599, uint8(1))
	f.Add(uint16(0), uint64(6), 593, uint8(2))
	logPaths(f)
	f.Fuzz(func(t *testing.T, c uint16, seed uint64, n int, off uint8) {
		if n < 0 || n > 600 {
			return
		}
		o := int(off % 32)
		r := rng.New(seed)
		src := randSlice16FromFuzz(r, o+n)[o:]
		dst := randSlice16FromFuzz(r, o+n)[o:]
		want := append([]Elem(nil), dst...)
		refAxpy16(want, src, c)
		wantAliased := append([]Elem(nil), src...)
		refAxpy16(wantAliased, src, c)
		tab := NewMulTable(c)
		forEachPath(func(path string) {
			forms := make([]Form, 1)
			FormsOf(forms, []Elem{c})
			kernels := []struct {
				name string
				run  func(dst, src []Elem)
			}{
				{"MulSlice16", func(dst, src []Elem) { MulSlice16(dst, src, c) }},
				{"MulSliceForm", func(dst, src []Elem) { MulSliceForm(dst, src, &forms[0]) }},
				{"MulSliceTable16", func(dst, src []Elem) { MulSliceTable16(dst, src, tab) }},
			}
			for _, k := range kernels {
				got := append([]Elem(nil), dst...)
				k.run(got, src)
				al := append([]Elem(nil), src...)
				k.run(al, al)
				for i := range got {
					if got[i] != want[i] || al[i] != wantAliased[i] {
						t.Fatalf("%s %s n=%d off=%d c=%#x [%d]: got %#x (aliased %#x) want %#x (%#x)",
							path, k.name, n, o, c, i, got[i], al[i], want[i], wantAliased[i])
					}
				}
			}
		})
	})
}

func randSlice16FromFuzz(r *rng.Rand, n int) []Elem {
	s := make([]Elem, n)
	for i := range s {
		s[i] = Elem(r.Uint32())
	}
	return s
}

// FuzzHadamardKernels drives the Hadamard kernels with random operands,
// scale, length (up to 600) and a slice offset (so blocks start at
// every alignment) through every reachable dispatch path, aliased dst
// included. MulHadamardAccumPeriodic runs at periods 1, 2, 4, 8 and 16
// (the tiled GFNI block) and 32 and 64 (one Hadamard per period).
func FuzzHadamardKernels(f *testing.F) {
	f.Add(uint64(1), uint16(0), 0, uint8(0))
	f.Add(uint64(0xdeadbeef), uint16(1), 16, uint8(3))
	f.Add(uint64(42), uint16(0x8000), 129, uint8(15))
	f.Add(uint64(7), uint16(3), 600, uint8(31))
	logPaths(f)
	f.Fuzz(func(t *testing.T, seed uint64, c uint16, n int, off uint8) {
		if n < 0 || n > 600 {
			return
		}
		o := int(off % 32)
		r := rng.New(seed)
		slice16 := func() []Elem { return randSlice16FromFuzz(r, o+n)[o:] }
		a, b, dst := slice16(), slice16(), slice16()
		slice8 := func() []uint8 { return randSlice8(r, o+n)[o:] }
		a8, b8, dst8 := slice8(), slice8(), slice8()
		periods := []int{1, 2, 4, 8, 16, 32, 64}
		blocks := make([][]Elem, len(periods))
		for i, p := range periods {
			blocks[i] = randSlice16FromFuzz(r, o+p)[o:]
		}
		forEachPath(func(path string) {
			checkHadamard16(t, path, dst, a, b, c)
			checkHadamard8(t, path, append([]uint8(nil), dst8...), a8, b8)
			for _, blk := range blocks {
				checkPeriodic16(t, path, dst, blk, b)
			}
		})
	})
}
