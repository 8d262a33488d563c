package core

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// family is what one polynomial family brings to the distributed
// evaluation: its DP state on this rank's slots and the arithmetic on
// it. The schedule around it — rounds, phase steps, spans, counters,
// the modeled clock, synchronization and the all-reduce — is the
// driver's (sweep and phaseSteps), the same for every family.
type family interface {
	// levels lists the DP steps after the level-1 fill, in order; each
	// runs in one level span labelled by its entry.
	levels() []int
	// fill writes the level-1 rows of iterations [q0, q0+nb) at every
	// slot (ghosts included: the assignment is global, so no halo) and
	// returns the elements it charges.
	fill(a *mld.Assignment, q0 uint64, nb int) (elems float64)
	// level computes step lv at the owned vertices and returns its
	// charge: kernel elements, fingerprint hashes and skipped cells.
	level(a *mld.Assignment, lv, nb int) (elems, hashes float64, skipped int64)
	// halo sends step lv's boundary rows to the neighbouring parts and
	// fills the ghost rows that later steps read.
	halo(lv, nb int)
	// final is the slab holding the finished polynomial's rows for
	// partial total z; the driver XORs its owned rows into partial[z].
	final(z int) []gf.Elem
}

// sweep runs the rounds of fam's polynomial at size cfg.K (Algorithm
// 2): per round it draws the assignment, runs this rank's phase steps,
// XOR-all-reduces the width partial totals over the world and hands
// the world totals to verdict, which returns true to stop.
func (p *plan) sweep(fam family, width int, assign func(round int) *mld.Assignment, verdict func(global []uint64) bool) error {
	partial := make([]uint64, width)
	rounds := p.cfg.mldOptions().RoundsFor(p.cfg.K)
	for round := 0; round < rounds; round++ {
		if err := p.checkCtx(); err != nil {
			return err
		}
		p.span(obs.RoundName, round, "round")
		p.rec.Add(obs.Rounds, 1)
		clear(partial)
		if err := p.phaseSteps(fam, assign(round), partial); err != nil {
			p.endSpan()
			return err
		}
		global := p.world.AllreduceXor(partial)
		p.endSpan()
		if verdict(global) {
			return nil
		}
	}
	return nil
}

// detect is sweep for the yes/no families (path, tree, motif): one
// total per round, stopping at the first non-zero one.
func (p *plan) detect(fam family, assign func(round int) *mld.Assignment) (bool, error) {
	found := false
	err := p.sweep(fam, 1, assign, func(global []uint64) bool {
		found = global[0] != 0
		return found
	})
	return found, err
}

// phaseSteps runs this rank's share of one round's 2^k iterations and
// folds its partial totals into partial. Phase t goes to group
// t mod groups; after every step all ranks synchronize (Algorithm 2
// line 12), which with a configured context doubles as the
// cancellation point (see syncStep).
func (p *plan) phaseSteps(fam family, a *mld.Assignment, partial []uint64) error {
	k, n2 := p.cfg.K, p.cfg.N2
	iters := uint64(1) << uint(k)
	numPhases := p.phases(k)
	steps := (numPhases + uint64(p.groups) - 1) / uint64(p.groups)
	var skipped int64
	for s := uint64(0); s < steps; s++ {
		ph := s*uint64(p.groups) + uint64(p.gid)
		if ph < numPhases {
			p.span(obs.PhaseName, int(ph), "phase")
			p.rec.Add(obs.Phases, 1)
			q0 := ph * uint64(n2)
			nb := n2
			if rem := iters - q0; uint64(nb) > rem {
				nb = int(rem)
			}
			elemSec, edgeSec := p.kernelCosts()
			elems := fam.fill(a, q0, nb)
			p.advanceCompute(elemSec * elems)
			p.countDPOps(elems)
			for _, lv := range fam.levels() {
				p.span(obs.LevelName, lv, "level")
				p.rec.Add(obs.Levels, 1)
				elems, hashes, skip := fam.level(a, lv, nb)
				skipped += skip
				p.advanceCompute(elemSec*elems + edgeSec*hashes)
				p.countDPOps(elems)
				fam.halo(lv, nb)
				p.endSpan()
			}
			for z := range partial {
				partial[z] ^= p.xorOwned(fam.final(z), nb)
			}
			elems = float64(len(partial)*len(p.owned)) * float64(nb)
			p.advanceCompute(elemSec * elems)
			p.countDPOps(elems)
			p.endSpan()
		}
		if err := p.syncStep(); err != nil {
			p.rec.Add(obs.CellsSkipped, skipped)
			return err
		}
		p.reportProgress(s, numPhases)
	}
	p.rec.Add(obs.CellsSkipped, skipped)
	return nil
}

// levelRange is the step list 2, 3, …, k of the level-indexed DPs.
func levelRange(k int) []int {
	out := make([]int, 0, k)
	for j := 2; j <= k; j++ {
		out = append(out, j)
	}
	return out
}

// fillBase writes the base rows of iterations [q0, q0+nb) at every
// slot of dst (an nSlots × N2 slab).
func (p *plan) fillBase(a *mld.Assignment, dst []gf.Elem, q0 uint64, nb int) {
	n2 := p.cfg.N2
	for s := 0; s < p.nSlots; s++ {
		a.FillBase(dst[s*n2:s*n2+nb], p.vertOf[s], q0, p.cfg.NoGray)
	}
}

// xorOwned is the XOR of the owned vertices' rows of src, each nb wide.
func (p *plan) xorOwned(src []gf.Elem, nb int) uint64 {
	n2 := p.cfg.N2
	var total gf.Elem
	for _, v := range p.owned {
		sv := int(p.slotOf[v])
		for _, e := range src[sv*n2 : sv*n2+nb] {
			total ^= e
		}
	}
	return uint64(total)
}

// slab allocates one nSlots × N2 value buffer. A family allocates its
// slabs once per run and reuses them across rounds and phases: every
// step writes the rows it later reads.
func (p *plan) slab() []gf.Elem { return make([]gf.Elem, p.nSlots*p.cfg.N2) }

// slabs allocates n slabs.
func (p *plan) slabs(n int) [][]gf.Elem {
	out := make([][]gf.Elem, n)
	for i := range out {
		out[i] = p.slab()
	}
	return out
}
