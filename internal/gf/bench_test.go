package gf

// Microbenchmarks for the field-arithmetic kernels the DP inner loop
// spends its time in. Run via `make bench` (benchstat-friendly:
// -count repetitions, -benchmem). The slice kernels report throughput
// so regressions show up as MB/s, not just ns/op.

import "testing"

// Sinks defeat dead-code elimination of the benchmarked kernels.
var (
	sink8  uint8
	sink16 Elem
	sink32 uint32
	sink64 uint64
	sinkB  bool
)

func BenchmarkMul8(b *testing.B) {
	x, y := uint8(0x53), uint8(0xCA)
	for i := 0; i < b.N; i++ {
		x = Mul8(x, y) | 1
	}
	sink8 = x
}

func BenchmarkMul16(b *testing.B) {
	x, y := Elem(0x1234), Elem(0xABCD)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y) | 1
	}
	sink16 = x
}

func BenchmarkMul32(b *testing.B) {
	x, y := uint32(0x12345678), uint32(0x9ABCDEF0)
	for i := 0; i < b.N; i++ {
		x = Mul32(x, y) | 1
	}
	sink32 = x
}

func BenchmarkMul64(b *testing.B) {
	x, y := uint64(0x123456789ABCDEF0), uint64(0x0FEDCBA987654321)
	for i := 0; i < b.N; i++ {
		x = Mul64(x, y) | 1
	}
	sink64 = x
}

// benchSlice returns deterministic non-zero operand slices of length n.
func benchSlice(n int) (a, b, dst []Elem) {
	a, b, dst = make([]Elem, n), make([]Elem, n), make([]Elem, n)
	for i := range a {
		a[i] = NonZero(uint64(i)*0x9E3779B97F4A7C15 + 1)
		b[i] = NonZero(uint64(i)*0xBF58476D1CE4E5B9 + 7)
	}
	return
}

// BenchmarkMulSlice16 times the coefficient-store axpy once per
// reachable dispatch path (portable, asm = AVX2 nibble tables, gfni =
// affine), with c's form already in the store as in a steady-state DP.
func BenchmarkMulSlice16(b *testing.B) {
	const n = 4096
	src, _, dst := benchSlice(n)
	c := NonZero(42)
	forEachPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			MulSlice16(dst, src, c) // build c's form outside the timer
			b.SetBytes(n * 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulSlice16(dst, src, c)
			}
			sink16 = dst[0]
		})
	})
}

func BenchmarkHadamardInto(b *testing.B) {
	const n = 4096
	x, y, dst := benchSlice(n)
	b.SetBytes(n * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HadamardInto(dst, x, y)
	}
	sink16 = dst[0]
}

func BenchmarkHadamardInto8(b *testing.B) {
	const n = 4096
	x, y, dst := make([]uint8, n), make([]uint8, n), make([]uint8, n)
	for i := range x {
		x[i] = NonZero8(uint64(i)*0x9E3779B97F4A7C15 + 1)
		y[i] = NonZero8(uint64(i)*0xBF58476D1CE4E5B9 + 7)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HadamardInto8(dst, x, y)
	}
	sink8 = dst[0]
}

func BenchmarkMulHadamardAccum(b *testing.B) {
	const n = 4096
	x, y, dst := benchSlice(n)
	b.SetBytes(n * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulHadamardAccum(dst, x, y)
	}
	sink16 = dst[0]
}

func BenchmarkMulHadamardAccumScaled(b *testing.B) {
	const n = 4096
	x, y, dst := benchSlice(n)
	c := NonZero(9)
	b.SetBytes(n * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulHadamardAccumScaled(dst, x, y, c)
	}
	sink16 = dst[0]
}

func BenchmarkAnyNonZero(b *testing.B) {
	// Worst case: scan the whole slice (all zeros).
	s := make([]Elem, 4096)
	b.SetBytes(4096 * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkB = AnyNonZero(s)
	}
}

func BenchmarkMulSliceTable16(b *testing.B) {
	// A prebuilt table, so only the nibble-table axpy itself is
	// measured: the store-free twin of BenchmarkMulSlice16/asm.
	const n = 4096
	src, _, dst := benchSlice(n)
	t := NewMulTable(NonZero(42))
	b.SetBytes(n * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSliceTable16(dst, src, t)
	}
	sink16 = dst[0]
}

func BenchmarkMulSliceTable8(b *testing.B) {
	const n = 4096
	src, dst := make([]uint8, n), make([]uint8, n)
	for i := range src {
		src[i] = NonZero8(uint64(i) + 1)
	}
	t := NewMulTable8(0x35)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSliceTable8(dst, src, t)
	}
	sink8 = dst[0]
}

func BenchmarkMulSlice8(b *testing.B) {
	const n = 4096
	src, dst := make([]uint8, n), make([]uint8, n)
	for i := range src {
		src[i] = NonZero8(uint64(i) + 1)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSlice8(dst, src, 0x35)
	}
	sink8 = dst[0]
}
