package mld

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// MaxWeightPath solves the weighted variant of Problem 3(2) from the
// paper for paths: among all simple paths on exactly k vertices, find
// the maximum total vertex weight (and whether any k-path exists at
// all). The DP augments the k-path evaluation with a weight index, like
// the scan-statistics polynomial but path-shaped:
//
//	P(i, 1, w(i)) = x_i
//	P(i, j, z)    = x_i · Σ_{u∈N(i)} r(u,i,j) · P(u, j-1, z - w(i))
//
// so cell (k, z) has a multilinear term iff a k-path of weight exactly z
// exists; the answer is the largest z with a nonzero total. Cost grows
// by a factor of the weight range over plain detection (paper Lemma 3's
// W factor); use scanstat.RoundWeights to keep the grid small.
//
// Errors are one-sided per round: the reported weight is always
// realized by some k-path; with probability ≤ opt.Epsilon a
// larger-weight path may be missed.
func MaxWeightPath(g *graph.Graph, k int, opt Options) (int64, bool, error) {
	if err := validateK(k, g.NumVertices()); err != nil {
		return 0, false, err
	}
	if k > g.NumVertices() {
		return 0, false, nil
	}
	// Size the weight grid: any k-path weighs at most k·max_v w(v).
	var maxw int64
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		w := g.Weight(v)
		if w < 0 {
			return 0, false, fmt.Errorf("mld: vertex %d has negative weight %d", v, w)
		}
		if w > maxw {
			maxw = w
		}
	}
	zmax := int64(k) * maxw
	const gridLimit = 1 << 20
	if (zmax+1)*int64(g.NumVertices()) > gridLimit*64 {
		return 0, false, fmt.Errorf("mld: weight grid %d too large; round weights first (scanstat.RoundWeights)", zmax)
	}
	if opt.Arena == nil {
		opt.Arena = NewArena() // share slabs across this call's rounds
	}
	best := int64(-1)
	found := false
	rounds := opt.RoundsFor(k)
	for round := 0; round < rounds; round++ {
		opt.obsSpan(obs.RoundName, round, "round")
		opt.Obs.Add(obs.Rounds, 1)
		a := NewMaxWeightAssignment(g.NumVertices(), k, opt.Seed, round)
		row := maxWeightRound(g, k, zmax, a, opt)
		opt.obsEnd()
		for z := zmax; z >= 0; z-- {
			if row[z] != 0 {
				found = true
				if z > best {
					best = z
				}
				break
			}
		}
	}
	if !found {
		return 0, false, nil
	}
	return best, true, nil
}

// maxWeightRound evaluates the weight-indexed path polynomial over all
// 2^k iterations and returns per-weight totals for level k.
func maxWeightRound(g *graph.Graph, k int, zmax int64, a *Assignment, opt Options) []gf.Elem {
	n := g.NumVertices()
	n2 := PlanN2(opt.N2, n, k, WeightSlabs(2, zmax))
	iters := uint64(1) << uint(k)
	nz := int(zmax) + 1

	// prev[z] and cur[z] are flat n×n2 buffers for the current level.
	alloc := func() [][]gf.Elem {
		out := make([][]gf.Elem, nz)
		for z := range out {
			out[z] = opt.Arena.Grab(n * n2)
		}
		return out
	}
	prev, cur := alloc(), alloc()
	base := opt.Arena.Grab(n * n2)
	defer func() {
		opt.Arena.Put(base)
		opt.Arena.Put(prev...)
		opt.Arena.Put(cur...)
	}()
	totals := make([]gf.Elem, nz)
	var skipped int64
	var maxwPrefix int64 // max achievable weight after j vertices
	var maxw int64
	for v := int32(0); v < int32(n); v++ {
		if w := g.Weight(v); w > maxw {
			maxw = w
		}
	}

	for q0 := uint64(0); q0 < iters; q0 += uint64(n2) {
		nb := n2
		if rem := iters - q0; uint64(nb) > rem {
			nb = int(rem)
		}
		for i := 0; i < n; i++ {
			a.FillBase(base[i*n2:i*n2+nb], int32(i), q0, opt.NoGray)
		}
		for z := 0; z < nz; z++ {
			buf := prev[z]
			for i := range buf {
				buf[i] = 0
			}
		}
		for i := 0; i < n; i++ {
			w := g.Weight(int32(i))
			copy(prev[w][i*n2:i*n2+nb], base[i*n2:i*n2+nb])
		}
		maxwPrefix = maxw
		for j := 2; j <= k; j++ {
			maxwPrefix += maxw
			zhi := maxwPrefix
			if zhi > zmax {
				zhi = zmax
			}
			for z := 0; z < nz; z++ {
				buf := cur[z]
				for i := range buf {
					buf[i] = 0
				}
			}
			for i := int32(0); i < int32(n); i++ {
				wi := g.Weight(i)
				iLo, iHi := int(i)*n2, int(i)*n2+nb
				for _, u := range g.Neighbors(i) {
					// One coefficient covers the whole weight column:
					// hash it once per (u,i).
					r := gf.Elem(1)
					if !opt.NoFingerprints {
						r = a.EdgeCoeff(u, i, j)
					}
					uLo, uHi := int(u)*n2, int(u)*n2+nb
					for z := wi; z <= zhi; z++ {
						src := prev[z-wi][uLo:uHi]
						if !gf.AnyNonZero(src) {
							skipped++
							continue
						}
						gf.MulSlice16(cur[z][iLo:iHi], src, r)
					}
				}
				for z := wi; z <= zhi; z++ {
					dst := cur[z][iLo:iHi]
					gf.HadamardInto(dst, dst, base[iLo:iHi])
				}
			}
			prev, cur = cur, prev
		}
		for z := 0; z < nz; z++ {
			buf := prev[z]
			for i := 0; i < n; i++ {
				for q := 0; q < nb; q++ {
					totals[z] ^= buf[i*n2+q]
				}
			}
		}
	}
	opt.Obs.Add(obs.CellsSkipped, skipped)
	return totals
}

// BruteMaxWeightPath is the exhaustive oracle for MaxWeightPath.
func BruteMaxWeightPath(g *graph.Graph, k int) (int64, bool) {
	n := g.NumVertices()
	if k < 1 || k > n {
		return 0, false
	}
	used := make([]bool, n)
	best := int64(-1)
	var dfs func(v int32, depth int, w int64)
	dfs = func(v int32, depth int, w int64) {
		if depth == k {
			if w > best {
				best = w
			}
			return
		}
		for _, u := range g.Neighbors(v) {
			if !used[u] {
				used[u] = true
				dfs(u, depth+1, w+g.Weight(u))
				used[u] = false
			}
		}
	}
	for s := int32(0); s < int32(n); s++ {
		used[s] = true
		dfs(s, 1, g.Weight(s))
		used[s] = false
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
