package mld

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// MaxWeightTree is MaxWeightPath for tree templates: the maximum total
// vertex weight over all non-induced embeddings of tpl in g. The DP
// augments each decomposition node with a weight index:
//
//	P(i, leaf, w(i)) = x_i
//	P(i, nd, z)      = Σ_{z1+z2=z} P(i, left, z1) · Σ_u r(u,i,nd)·P(u, right, z2)
func MaxWeightTree(g *graph.Graph, tpl *graph.Template, opt Options) (int64, bool, error) {
	k := tpl.K()
	if err := validateK(k, g.NumVertices()); err != nil {
		return 0, false, err
	}
	if k > g.NumVertices() {
		return 0, false, nil
	}
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
	const gridLimit = 1 << 26
	if (zmax+1)*int64(g.NumVertices())*int64(2*k-1) > gridLimit {
		return 0, false, fmt.Errorf("mld: weight grid %d too large for tree DP; round weights first", zmax)
	}
	if opt.Arena == nil {
		opt.Arena = NewArena() // share slabs across this call's rounds
	}
	d := tpl.Decompose()
	best := int64(-1)
	found := false
	rounds := opt.RoundsFor(k)
	for round := 0; round < rounds; round++ {
		opt.obsSpan(obs.RoundName, round, "round")
		opt.Obs.Add(obs.Rounds, 1)
		a := NewAssignment(g.NumVertices(), k, opt.Seed, round, tagTree+13)
		row := maxWeightTreeRound(g, d, zmax, a, opt)
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

func maxWeightTreeRound(g *graph.Graph, d *graph.Decomposition, zmax int64, a *Assignment, opt Options) []gf.Elem {
	n := g.NumVertices()
	k := a.K
	n2 := PlanN2(opt.N2, n, k, WeightSlabs(k-1, zmax))
	iters := uint64(1) << uint(k)
	nz := int(zmax) + 1
	var maxw int64
	for v := int32(0); v < int32(n); v++ {
		if w := g.Weight(v); w > maxw {
			maxw = w
		}
	}
	zcap := func(size int) int {
		c := int64(size) * maxw
		if c > zmax {
			c = zmax
		}
		return int(c)
	}

	base := opt.Arena.Grab(n * n2)
	// vals[node][z] — nil rows for z beyond the node's capacity.
	vals := make([][][]gf.Elem, len(d.Nodes))
	for j, nd := range d.Nodes {
		vals[j] = make([][]gf.Elem, zcap(nd.Size)+1)
		if nd.Left >= 0 {
			for z := range vals[j] {
				vals[j][z] = opt.Arena.Grab(n * n2)
			}
		}
	}
	defer func() {
		opt.Arena.Put(base)
		for j, nd := range d.Nodes {
			if nd.Left >= 0 {
				opt.Arena.Put(vals[j]...)
			}
		}
	}()
	acc := make([]gf.Elem, n2)
	totals := make([]gf.Elem, nz)
	var skipped int64

	for q0 := uint64(0); q0 < iters; q0 += uint64(n2) {
		nb := n2
		if rem := iters - q0; uint64(nb) > rem {
			nb = int(rem)
		}
		for i := 0; i < n; i++ {
			a.FillBase(base[i*n2:i*n2+nb], int32(i), q0, opt.NoGray)
		}
		for j, nd := range d.Nodes {
			if nd.Left < 0 {
				// leaves: P(i, leaf, z) is base at z == w(i), zero elsewhere.
				// Materialized lazily below via leafRow.
				continue
			}
			left, right := d.Nodes[nd.Left], d.Nodes[nd.Right]
			for z := range vals[j] {
				buf := vals[j][z]
				for i := range buf {
					buf[i] = 0
				}
			}
			for i := int32(0); i < int32(n); i++ {
				iLo, iHi := int(i)*n2, int(i)*n2+nb
				for z2 := 0; z2 <= zcap(right.Size); z2++ {
					av := acc[:nb]
					for q := range av {
						av[q] = 0
					}
					nonzero := false
					for _, u := range g.Neighbors(i) {
						src := nodeRow(d, vals, nd.Right, int64(z2), u, g, base, n2, nb)
						if src == nil || !gf.AnyNonZero(src) {
							skipped++
							continue
						}
						r := gf.Elem(1)
						if !opt.NoFingerprints {
							r = a.EdgeCoeff(u, i, j)
						}
						gf.MulSlice16(av, src, r)
						nonzero = true
					}
					if !nonzero {
						continue
					}
					for z1 := 0; z1 <= zcap(left.Size); z1++ {
						z := z1 + z2
						if z >= len(vals[j]) {
							break
						}
						src1 := nodeRow(d, vals, nd.Left, int64(z1), i, g, base, n2, nb)
						if src1 == nil || !gf.AnyNonZero(src1) {
							skipped++
							continue
						}
						gf.MulHadamardAccum(vals[j][z][iLo:iHi], src1, av)
					}
				}
			}
		}
		rootCap := zcap(d.Nodes[d.Root].Size)
		for z := 0; z <= rootCap; z++ {
			row := vals[d.Root]
			if d.Nodes[d.Root].Left < 0 {
				// degenerate k=1 template
				for i := 0; i < n; i++ {
					if g.Weight(int32(i)) == int64(z) {
						for q := 0; q < nb; q++ {
							totals[z] ^= base[i*n2+q]
						}
					}
				}
				continue
			}
			buf := row[z]
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

// nodeRow returns the value vector of a decomposition node at weight z
// for vertex u: for internal nodes it's the stored buffer; for leaves it
// is base when z equals the vertex weight and nil otherwise.
func nodeRow(d *graph.Decomposition, vals [][][]gf.Elem, node int, z int64, u int32, g *graph.Graph, base []gf.Elem, n2, nb int) []gf.Elem {
	nd := d.Nodes[node]
	if nd.Left < 0 {
		if g.Weight(u) != z {
			return nil
		}
		return base[int(u)*n2 : int(u)*n2+nb]
	}
	if z < 0 || int(z) >= len(vals[node]) {
		return nil
	}
	return vals[node][int(z)][int(u)*n2 : int(u)*n2+nb]
}
