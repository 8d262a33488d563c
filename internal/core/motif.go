package core

import (
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

// RunMotif executes the distributed constrained-motif detection: does
// g contain a connected spec.K-vertex subgraph whose colors satisfy
// spec? The answer is identical on all ranks and matches
// mld.DetectMotif with the same seed bit-for-bit (the constrained
// assignment is a pure function of the seed and the graph's labels, so
// ranks rebuild it locally — randomness costs no communication). The
// halo/all-reduce schedule is the scan evaluator's with a single
// weight stratum.
func RunMotif(world *comm.Comm, g *graph.Graph, spec *mld.MotifSpec, cfg Config) (bool, error) {
	if err := spec.Validate(); err != nil {
		return false, err
	}
	cfg.K = spec.K
	if cfg.K > g.NumVertices() {
		return false, nil
	}
	p, err := buildPlan(world, g, cfg, mld.LevelSlabs(cfg.K))
	if err != nil {
		return false, err
	}
	return p.detect(newMotifFamily(p), func(round int) *mld.Assignment {
		return mld.NewMotifAssignment(g, spec, cfg.Seed, round)
	})
}

// motifFamily is the constrained-motif DP: the scan recurrence without
// the weight axis. Levels jj ≥ 2 combine a local piece P(v,j') with
// neighbor pieces P(u,jj−j'), so every finished level below the last is
// halo-exchanged before the next one reads it (level 1 is the base row,
// which each rank fills at ghost slots locally). The local piece does
// not depend on u, so the join is factored: per (v, j') the neighbor
// pieces are summed with the constant-multiply axpy and multiplied into
// P(v,jj) by one Hadamard product.
type motifFamily struct {
	p     *plan
	tab   [][]gf.Elem // tab[jj], 1 ≤ jj ≤ k; tab[0] unused
	sum   []gf.Elem   // the neighbor sum of one (vertex, split)
	steps []int
}

func newMotifFamily(p *plan) *motifFamily {
	k := p.cfg.K
	tab := append([][]gf.Elem{nil}, p.slabs(k)...)
	return &motifFamily{p: p, tab: tab, sum: make([]gf.Elem, p.cfg.N2), steps: levelRange(k)}
}

func (f *motifFamily) levels() []int { return f.steps }

func (f *motifFamily) fill(a *mld.Assignment, q0 uint64, nb int) float64 {
	f.p.fillBase(a, f.tab[1], q0, nb)
	for _, buf := range f.tab[2:] {
		clear(buf)
	}
	return float64(f.p.nSlots) * float64(nb)
}

func (f *motifFamily) level(a *mld.Assignment, jj, nb int) (kernelElems, hashes float64, skipped int64) {
	p, n2, tab := f.p, f.p.cfg.N2, f.tab
	acc := f.sum[:nb]
	for _, v := range p.owned {
		sv := int(p.slotOf[v])
		iLo, iHi := sv*n2, sv*n2+nb
		nbrs := p.g.Neighbors(v)
		for jp := 1; jp < jj; jp++ {
			local := tab[jp][iLo:iHi]
			if !gf.AnyNonZero(local) {
				skipped += int64(len(nbrs))
				continue
			}
			// S = Σ_u r·P(u,jj−jp), charged like the per-edge
			// triple product it replaces: one skip per dead
			// (v, u, jp) cell, one width-nb op per live one.
			live := false
			for _, u := range nbrs {
				su := int(p.slotOf[u])
				piece := tab[jj-jp][su*n2 : su*n2+nb]
				if !gf.AnyNonZero(piece) {
					skipped++
					continue
				}
				r := gf.Elem(1)
				if !p.cfg.NoFingerprints {
					r = a.MotifCoeff(u, v, jj, jp)
				}
				hashes++
				gf.MulSlice16(acc, piece, r)
				kernelElems += float64(nb)
				live = true
			}
			if live {
				// P(v,jj) += P(v,jp) ⊙ S
				gf.MulHadamardAccum(tab[jj][iLo:iHi], local, acc)
				clear(acc)
			}
		}
	}
	return kernelElems, hashes, skipped
}

// halo exchanges level jj: later levels read every earlier level at
// neighbor vertices. The final level is only summed locally.
func (f *motifFamily) halo(jj, nb int) {
	if jj < f.p.cfg.K {
		f.p.exchange(f.tab[jj], f.p.cfg.N2, nb, jj, jj)
	}
}

func (f *motifFamily) final(int) []gf.Elem { return f.tab[f.p.cfg.K] }
