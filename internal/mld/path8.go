package mld

import (
	"sync/atomic"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/rng"
)

// GF(2^8) evaluation — the field width the paper actually prescribes
// (b = 3 + log2 k ≈ 8 for k ≤ 18). Halving the element size halves DP
// memory traffic at the price of a per-round Schwartz–Zippel failure of
// ~2k/2^8 instead of ~2k/2^16, i.e. a couple of amplification rounds at
// ε = 0.05. VariantGF8 exists to quantify that trade (DESIGN.md §6.3).

// coeffTables8 caches the GF(2^8) multiplication tables by
// coefficient. The field has 256 constants, so the tables stay behind
// pointers: they all fit in L1/L2 and the fetch is not a miss worth
// flattening (GF(2^16) keeps its per-coefficient forms in gf's flat
// store behind MulSlice16).
var coeffTables8 [1 << 8]atomic.Pointer[gf.MulTable8]

// CachedMulTable8 returns the process-wide GF(2^8) multiplication table
// for c, building and publishing it on first use.
func CachedMulTable8(c uint8) *gf.MulTable8 {
	if t := coeffTables8[c].Load(); t != nil {
		return t
	}
	t := gf.NewMulTable8(c)
	coeffTables8[c].Store(t)
	return t
}

// assignment8 mirrors Assignment over GF(2^8).
type assignment8 struct {
	k    int
	seed uint64
	u    []uint8
}

func newAssignment8(n, k int, seed uint64, round int) *assignment8 {
	derived := rng.Hash3(seed, uint64(round)+1, tagPath*77, uint64(k))
	a := &assignment8{k: k, seed: derived, u: make([]uint8, n*k)}
	r := rng.New(derived)
	for i := range a.u {
		a.u[i] = uint8(r.Uint32())
	}
	return a
}

func (a *assignment8) fillBase(dst []uint8, i int32, q0 uint64, noGray bool) {
	row := a.u[int(i)*a.k : int(i)*a.k+a.k]
	value := func(mask uint64) uint8 {
		var x uint8
		for j := 0; mask != 0; j++ {
			if mask&1 != 0 {
				x ^= row[j]
			}
			mask >>= 1
		}
		return x
	}
	if noGray {
		for q := range dst {
			dst[q] = value(gray(q0 + uint64(q)))
		}
		return
	}
	x := value(gray(q0))
	dst[0] = x
	for q := 1; q < len(dst); q++ {
		x ^= row[flipBit(q0+uint64(q)-1)]
		dst[q] = x
	}
}

func (a *assignment8) edgeCoeff(u, i int32, level int) uint8 {
	h := rng.Hash2(a.seed, uint64(uint32(u))<<32|uint64(uint32(i)), uint64(level))
	return gf.NonZero8(h)
}

// pathRound8 is pathRound over GF(2^8).
func pathRound8(g *graph.Graph, k int, opt Options, round int) uint8 {
	n := g.NumVertices()
	a := newAssignment8(n, k, opt.Seed, round)
	n2 := PlanN2(opt.N2, n, k, PathSlabs)
	iters := uint64(1) << uint(k)

	base := opt.Arena.Grab8(n * n2)
	prev := opt.Arena.Grab8(n * n2)
	cur := opt.Arena.Grab8(n * n2)
	defer opt.Arena.Put8(base, prev, cur)
	one := CachedMulTable8(1)
	var total uint8
	var skipped int64

	for q0 := uint64(0); q0 < iters; q0 += uint64(n2) {
		nb := n2
		if rem := iters - q0; uint64(nb) > rem {
			nb = int(rem)
		}
		for i := 0; i < n; i++ {
			a.fillBase(base[i*n2:i*n2+nb], int32(i), q0, opt.NoGray)
		}
		copy(prev, base)
		for j := 2; j <= k; j++ {
			for i := range cur {
				cur[i] = 0
			}
			for i := int32(0); i < int32(n); i++ {
				dst := cur[int(i)*n2 : int(i)*n2+nb]
				for _, u := range g.Neighbors(i) {
					src := prev[int(u)*n2 : int(u)*n2+nb]
					if !gf.AnyNonZero8(src) {
						skipped++
						continue
					}
					t := one
					if !opt.NoFingerprints {
						t = CachedMulTable8(a.edgeCoeff(u, i, j))
					}
					gf.MulSliceTable8(dst, src, t)
				}
				gf.HadamardInto8(dst, dst, base[int(i)*n2:int(i)*n2+nb])
			}
			prev, cur = cur, prev
		}
		for i := 0; i < n; i++ {
			for q := 0; q < nb; q++ {
				total ^= prev[i*n2+q]
			}
		}
	}
	opt.Obs.Add(obs.CellsSkipped, skipped)
	return total
}
