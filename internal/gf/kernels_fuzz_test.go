package gf

import (
	"testing"

	"github.com/midas-hpc/midas/internal/rng"
)

// Property tests pinning every slice kernel byte-identical to a naive
// scalar reference built directly on Mul/Mul8, across all lengths
// 0..129 (covering the empty, sub-threshold, SIMD-block and ragged-tail
// regimes), with aliased dst==src, and on BOTH code paths: the
// accelerated one (haveAsm as detected) and the portable fallback
// (haveAsm forced false). haveAsm is a variable on every architecture
// precisely so these tests can flip it.

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

// withBothPaths runs fn under every reachable haveAsm setting. The
// accelerated path only exists where the detector found it, so on
// machines without AVX2 (and on non-amd64) only the portable path runs.
func withBothPaths(t *testing.T, fn func(t *testing.T)) {
	orig := haveAsm
	defer func() { haveAsm = orig }()
	haveAsm = false
	t.Run("portable", fn)
	if orig {
		haveAsm = true
		t.Run("asm", fn)
	}
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

func TestHadamardKernelsMatchScalar(t *testing.T) {
	r := rng.New(105)
	for n := 0; n <= 129; n++ {
		a := randSlice16(r, n)
		b := randSlice16(r, n)
		dst := randSlice16(r, n)
		c := Elem(r.Uint32())

		want := make([]Elem, n)
		for i := range want {
			want[i] = Mul(a[i], b[i])
		}
		got := append([]Elem(nil), dst...)
		HadamardInto(got, a, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("HadamardInto n=%d [%d]: got %#x want %#x", n, i, got[i], want[i])
			}
		}

		got = append([]Elem(nil), dst...)
		want = append([]Elem(nil), dst...)
		for i := range want {
			want[i] ^= Mul(a[i], b[i])
		}
		MulHadamardAccum(got, a, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MulHadamardAccum n=%d [%d]: got %#x want %#x", n, i, got[i], want[i])
			}
		}

		got = append([]Elem(nil), dst...)
		want = append([]Elem(nil), dst...)
		for i := range want {
			want[i] ^= Mul(c, Mul(a[i], b[i]))
		}
		MulHadamardAccumScaled(got, a, b, c)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MulHadamardAccumScaled n=%d c=%#x [%d]: got %#x want %#x", n, c, i, got[i], want[i])
			}
		}

		// aliased dst==a, the shape every DP level uses
		got = append([]Elem(nil), a...)
		want = make([]Elem, n)
		for i := range want {
			want[i] = Mul(a[i], b[i])
		}
		HadamardInto(got, got, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("HadamardInto aliased n=%d [%d]: got %#x want %#x", n, i, got[i], want[i])
			}
		}

		a8 := randSlice8(r, n)
		b8 := randSlice8(r, n)
		got8 := randSlice8(r, n)
		want8 := make([]uint8, n)
		for i := range want8 {
			want8[i] = Mul8(a8[i], b8[i])
		}
		HadamardInto8(got8, a8, b8)
		for i := range got8 {
			if got8[i] != want8[i] {
				t.Fatalf("HadamardInto8 n=%d [%d]: got %#x want %#x", n, i, got8[i], want8[i])
			}
		}
	}
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

// FuzzMulSlice16Kernel lets the fuzzer drive slice contents, lengths
// and the constant through both code paths.
func FuzzMulSlice16Kernel(f *testing.F) {
	f.Add(uint16(0), uint64(1), 7)
	f.Add(uint16(1), uint64(0xdeadbeef), 64)
	f.Add(uint16(0x8000), uint64(42), 129)
	f.Fuzz(func(t *testing.T, c uint16, seed uint64, n int) {
		if n < 0 || n > 600 {
			return
		}
		orig := haveAsm
		defer func() { haveAsm = orig }()
		r := rng.New(seed)
		src := randSlice16FromFuzz(r, n)
		dst := randSlice16FromFuzz(r, n)
		want := append([]Elem(nil), dst...)
		refAxpy16(want, src, c)
		for _, asm := range []bool{false, orig} {
			haveAsm = asm
			got := append([]Elem(nil), dst...)
			MulSlice16(got, src, c)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("haveAsm=%v n=%d c=%#x [%d]: got %#x want %#x", asm, n, c, i, got[i], want[i])
				}
			}
			tab := NewMulTable(c)
			got = append([]Elem(nil), dst...)
			MulSliceTable16(got, src, tab)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("table haveAsm=%v n=%d c=%#x [%d]: got %#x want %#x", asm, n, c, i, got[i], want[i])
				}
			}
		}
	})
}

func randSlice16FromFuzz(r *rng.Rand, n int) []Elem {
	s := make([]Elem, n)
	for i := range s {
		s[i] = Elem(r.Uint32())
	}
	return s
}
