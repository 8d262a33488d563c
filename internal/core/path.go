package core

import (
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

// RunPath executes distributed k-path detection (Algorithms 2 and 3).
// Every rank of the world communicator calls it collectively with the
// same graph and configuration; all ranks return the same answer.
func RunPath(world *comm.Comm, g *graph.Graph, cfg Config) (bool, error) {
	answer, _, err := RunPathProfiled(world, g, cfg)
	return answer, err
}

// pathFamily is the k-path DP (Algorithm 3): level j sums r·P(u, j−1)
// over the neighbours u and multiplies the sum by the base row.
type pathFamily struct {
	p               *plan
	base, prev, cur []gf.Elem
	steps           []int
}

func newPathFamily(p *plan) *pathFamily {
	return &pathFamily{p: p, base: p.slab(), prev: p.slab(), cur: p.slab(), steps: levelRange(p.cfg.K)}
}

func (f *pathFamily) levels() []int { return f.steps }

// fill is the base case (Algorithm 3 lines 5–7).
func (f *pathFamily) fill(a *mld.Assignment, q0 uint64, nb int) float64 {
	f.p.fillBase(a, f.base, q0, nb)
	copy(f.prev, f.base)
	return float64(f.p.nSlots) * float64(nb+f.p.cfg.K)
}

func (f *pathFamily) level(a *mld.Assignment, j, nb int) (float64, float64, int64) {
	p, n2 := f.p, f.p.cfg.N2
	for _, v := range p.owned {
		sv := int(p.slotOf[v])
		dst := f.cur[sv*n2 : sv*n2+nb]
		clear(dst)
		for _, u := range p.g.Neighbors(v) {
			su := int(p.slotOf[u])
			r := gf.Elem(1)
			if !p.cfg.NoFingerprints {
				r = a.EdgeCoeff(u, v, j)
			}
			gf.MulSlice16(dst, f.prev[su*n2:su*n2+nb], r)
		}
		gf.HadamardInto(dst, dst, f.base[sv*n2:sv*n2+nb])
	}
	f.prev, f.cur = f.cur, f.prev
	return float64(p.sumDegOwned+len(p.owned)) * float64(nb), float64(p.sumDegOwned), 0
}

// halo sends level j to the neighbouring parts (Algorithm 3 lines
// 14–16), one aggregated message per destination part. The last level
// feeds only the local sum, so it needs no halo.
func (f *pathFamily) halo(j, nb int) {
	if j < f.p.cfg.K {
		f.p.exchange(f.prev, f.p.cfg.N2, nb, j, j)
	}
}

func (f *pathFamily) final(int) []gf.Elem { return f.prev }
