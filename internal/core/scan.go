package core

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

// ScanConfig extends Config with the weight cap of the scan-statistics
// feasibility table.
type ScanConfig struct {
	Config
	ZMax int64
}

// RunScan executes the distributed scan-statistics evaluation
// (Algorithm 5): it returns the table feas[j][z] (1 ≤ j ≤ cfg.K,
// 0 ≤ z ≤ cfg.ZMax) of connected-subgraph feasibility, identical on all
// ranks. As in the sequential version, each target size j ≥ 3 runs in
// its own 2^j iteration space (DESIGN.md §2), and sizes 1 and 2 are
// read off the vertices and edges (mld.ExactScanRows).
func RunScan(world *comm.Comm, g *graph.Graph, cfg ScanConfig) ([][]bool, error) {
	if err := mld.ValidateK(cfg.K); err != nil {
		return nil, err
	}
	if cfg.ZMax < 0 {
		return nil, fmt.Errorf("core: negative weight cap %d", cfg.ZMax)
	}
	maxw, err := maxVertexWeight(g)
	if err != nil {
		return nil, err
	}
	feas := make([][]bool, cfg.K+1)
	for j := 1; j <= cfg.K; j++ {
		feas[j] = make([]bool, cfg.ZMax+1)
	}
	// Sizes 1 and 2 are exact and local: every rank holds g.
	mld.ExactScanRows(g, feas)
	for j := 3; j <= cfg.K && j <= g.NumVertices(); j++ {
		sub := cfg.Config
		sub.K = j
		p, err := buildPlan(world, g, sub, mld.WeightSlabs(j, cfg.ZMax))
		if err != nil {
			return nil, err
		}
		err = p.sweep(newScanFamily(p, maxw, cfg.ZMax), int(cfg.ZMax)+1, func(round int) *mld.Assignment {
			return mld.NewScanAssignment(g.NumVertices(), j, cfg.Seed, round)
		}, func(global []uint64) bool {
			for z := range global {
				if global[z] != 0 {
					feas[j][z] = true
				}
			}
			return false
		})
		if err != nil {
			return nil, err
		}
	}
	return feas, nil
}

// maxVertexWeight is g's largest vertex weight; negative weights are
// an error.
func maxVertexWeight(g *graph.Graph) (int64, error) {
	var maxw int64
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		w := g.Weight(v)
		if w < 0 {
			return 0, fmt.Errorf("core: vertex %d has negative weight", v)
		}
		maxw = max(maxw, w)
	}
	return maxw, nil
}

// scanFamily is the scan-statistics DP at target size j = cfg.K: P(v,
// jj, z) joins a local piece P(v, j', z') with neighbour pieces
// P(u, jj−j', z−z'), so, like motif, every level below the last is
// exchanged, once per weight z.
type scanFamily struct {
	p          *plan
	maxw, zmax int64
	tab        [][][]gf.Elem // tab[jj][z], 1 ≤ jj ≤ j
	base       []gf.Elem
	steps      []int
}

func newScanFamily(p *plan, maxw, zmax int64) *scanFamily {
	j, nz := p.cfg.K, int(zmax)+1
	f := &scanFamily{p: p, maxw: maxw, zmax: zmax, tab: make([][][]gf.Elem, j+1), steps: levelRange(j)}
	for jj := 1; jj <= j; jj++ {
		f.tab[jj] = p.slabs(nz)
	}
	f.base = p.slab()
	return f
}

func (f *scanFamily) levels() []int { return f.steps }

func (f *scanFamily) zcap(s int) int { return int(weightCap(s, f.maxw, f.zmax)) }

// weightCap mirrors the sequential evaluators' capacity bound: a
// subgraph on s vertices weighs at most s·max_v w(v), and no table
// stratum lies above zmax.
func weightCap(s int, maxw, zmax int64) int64 {
	if c := int64(s) * maxw; c < zmax {
		return c
	}
	return zmax
}

func (f *scanFamily) fill(a *mld.Assignment, q0 uint64, nb int) float64 {
	p, n2 := f.p, f.p.cfg.N2
	p.fillBase(a, f.base, q0, nb)
	for _, row := range f.tab[1:] {
		for _, buf := range row {
			clear(buf)
		}
	}
	// Base case at every slot (owned and ghost) — local.
	for sl := 0; sl < p.nSlots; sl++ {
		w := p.g.Weight(p.vertOf[sl])
		if w > f.zmax {
			continue
		}
		copy(f.tab[1][w][sl*n2:sl*n2+nb], f.base[sl*n2:sl*n2+nb])
	}
	return float64(p.nSlots) * float64(2*nb+p.cfg.K)
}

func (f *scanFamily) level(a *mld.Assignment, jj, nb int) (kernelElems, hashes float64, skipped int64) {
	p, n2, tab, nz := f.p, f.p.cfg.N2, f.tab, int(f.zmax)+1
	for _, v := range p.owned {
		sv := int(p.slotOf[v])
		iLo, iHi := sv*n2, sv*n2+nb
		for _, u := range p.g.Neighbors(v) {
			su := int(p.slotOf[u])
			uLo, uHi := su*n2, su*n2+nb
			for jp := 1; jp < jj; jp++ {
				jr := jj - jp
				for zp := 0; zp <= f.zcap(jp); zp++ {
					src1 := tab[jp][zp][iLo:iHi]
					if !gf.AnyNonZero(src1) {
						skipped++
						continue
					}
					var r gf.Elem = 1
					if !p.cfg.NoFingerprints {
						r = a.ScanCoeff(u, v, jj, jp, int64(zp))
					}
					hashes++
					for zr := 0; zr <= f.zcap(jr) && zp+zr < nz; zr++ {
						src2 := tab[jr][zr][uLo:uHi]
						if !gf.AnyNonZero(src2) {
							skipped++
							continue
						}
						gf.MulHadamardAccumScaled(tab[jj][zp+zr][iLo:iHi], src1, src2, r)
						kernelElems += float64(nb)
					}
				}
			}
		}
	}
	return kernelElems, hashes, skipped
}

// halo exchanges level jj, one message per weight z: later levels read
// every earlier level at neighbor vertices. The final level is only
// summed locally.
func (f *scanFamily) halo(jj, nb int) {
	if jj < f.p.cfg.K {
		for z, buf := range f.tab[jj] {
			f.p.exchange(buf, f.p.cfg.N2, nb, jj, jj*len(f.tab[jj])+z)
		}
	}
}

func (f *scanFamily) final(z int) []gf.Elem { return f.tab[f.p.cfg.K][z] }
