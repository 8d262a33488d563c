package core

import (
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

// RunMaxWeightPath is the distributed form of mld.MaxWeightPath: the
// maximum total vertex weight over simple k-paths, evaluated with the
// weight-indexed path DP under MIDAS's phase-group schedule. All ranks
// call collectively and receive the same (weight, found) answer.
func RunMaxWeightPath(world *comm.Comm, g *graph.Graph, cfg Config) (int64, bool, error) {
	if err := mld.ValidateK(cfg.K); err != nil {
		return 0, false, err
	}
	if cfg.K > g.NumVertices() {
		return 0, false, nil
	}
	maxw, err := maxVertexWeight(g)
	if err != nil {
		return 0, false, err
	}
	zmax := int64(cfg.K) * maxw
	p, err := buildPlan(world, g, cfg, mld.WeightSlabs(2, zmax))
	if err != nil {
		return 0, false, err
	}
	best := int64(-1)
	err = p.sweep(newMaxWeightFamily(p, maxw, zmax), int(zmax)+1, func(round int) *mld.Assignment {
		return mld.NewMaxWeightAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
	}, func(global []uint64) bool {
		for z := int64(len(global)) - 1; z > best; z-- {
			if global[z] != 0 {
				best = z
				break
			}
		}
		return false
	})
	if err != nil || best < 0 {
		return 0, false, err
	}
	return best, true, nil
}

// maxWeightFamily is the weight-indexed k-path DP: P(v, j, z) sums
// r·P(u, j−1, z−w(v)) over the neighbours u and multiplies by the base
// row; level j is live only up to weight zcap(j).
type maxWeightFamily struct {
	p          *plan
	maxw, zmax int64
	prev, cur  [][]gf.Elem // per weight z
	base       []gf.Elem
	steps      []int
}

func newMaxWeightFamily(p *plan, maxw, zmax int64) *maxWeightFamily {
	nz := int(zmax) + 1
	return &maxWeightFamily{p: p, maxw: maxw, zmax: zmax, prev: p.slabs(nz), cur: p.slabs(nz),
		base: p.slab(), steps: levelRange(p.cfg.K)}
}

func (f *maxWeightFamily) levels() []int { return f.steps }

func (f *maxWeightFamily) zcap(s int) int64 { return weightCap(s, f.maxw, f.zmax) }

func (f *maxWeightFamily) fill(a *mld.Assignment, q0 uint64, nb int) float64 {
	p, n2 := f.p, f.p.cfg.N2
	p.fillBase(a, f.base, q0, nb)
	for _, buf := range f.prev {
		clear(buf)
	}
	for sl := 0; sl < p.nSlots; sl++ {
		w := p.g.Weight(p.vertOf[sl])
		copy(f.prev[w][sl*n2:sl*n2+nb], f.base[sl*n2:sl*n2+nb])
	}
	return float64(p.nSlots) * float64(2*nb+p.cfg.K)
}

func (f *maxWeightFamily) level(a *mld.Assignment, j, nb int) (kernelElems, hashes float64, skipped int64) {
	p, n2, prev, cur := f.p, f.p.cfg.N2, f.prev, f.cur
	zhi := f.zcap(j)
	zPrev := f.zcap(j - 1) // prev is only valid (zeroed/exchanged) up to here
	for z := int64(0); z <= zhi; z++ {
		clear(cur[z])
	}
	for _, v := range p.owned {
		sv := int(p.slotOf[v])
		iLo, iHi := sv*n2, sv*n2+nb
		wi := p.g.Weight(v)
		for _, u := range p.g.Neighbors(v) {
			su := int(p.slotOf[u])
			// One coefficient covers the whole weight column.
			r := gf.Elem(1)
			if !p.cfg.NoFingerprints {
				r = a.EdgeCoeff(u, v, j)
			}
			uLo, uHi := su*n2, su*n2+nb
			hashes++
			for z := wi; z <= zhi && z-wi <= zPrev; z++ {
				src := prev[z-wi][uLo:uHi]
				if !gf.AnyNonZero(src) {
					skipped++
					continue
				}
				gf.MulSlice16(cur[z][iLo:iHi], src, r)
				kernelElems += float64(nb)
			}
		}
		for z := wi; z <= zhi; z++ {
			dst := cur[z][iLo:iHi]
			gf.HadamardInto(dst, dst, f.base[iLo:iHi])
			kernelElems += float64(nb)
		}
	}
	f.prev, f.cur = cur, prev
	return kernelElems, hashes, skipped
}

// halo exchanges level j's live weights; the last level is only summed
// locally.
func (f *maxWeightFamily) halo(j, nb int) {
	if j < f.p.cfg.K {
		for z := int64(0); z <= f.zcap(j); z++ {
			f.p.exchange(f.prev[z], f.p.cfg.N2, nb, j, j*len(f.prev)+int(z))
		}
	}
}

func (f *maxWeightFamily) final(z int) []gf.Elem { return f.prev[z] }
