package core

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// Distributed evaluator for the paper's Algorithm 1 arithmetic: integers
// mod 2^(k+1) instead of GF(2^16). This is the exact printed algorithm
// (plus the fingerprint fix), distributed under the same phase-group
// schedule — the ablation arm that lets the GF-vs-Koutis comparison run
// at cluster scale, not just sequentially. Selected via
// Config-compatible option on RunPathVariant.

// RunPathVariant is RunPath with an explicit evaluation variant.
// VariantGF16 behaves exactly like RunPath; VariantKoutis runs the
// mod-2^(k+1) evaluation with a sum-mod reduction; VariantGF8 is not
// offered distributed (its purpose is the sequential width ablation).
func RunPathVariant(world *comm.Comm, g *graph.Graph, cfg Config, variant mld.Variant) (bool, error) {
	switch variant {
	case mld.VariantGF16:
		return RunPath(world, g, cfg)
	case mld.VariantKoutis:
		return runPathKoutis(world, g, cfg)
	default:
		return false, fmt.Errorf("core: variant %v not supported distributed", variant)
	}
}

func runPathKoutis(world *comm.Comm, g *graph.Graph, cfg Config) (bool, error) {
	if err := mld.ValidateK(cfg.K); err != nil {
		return false, err
	}
	if cfg.K > g.NumVertices() {
		return false, nil
	}
	p, err := buildPlan(world, g, cfg, mld.PathSlabs)
	if err != nil {
		return false, err
	}
	mod := uint64(1) << uint(cfg.K+1)
	rounds := cfg.mldOptions().RoundsFor(cfg.K)
	for round := 0; round < rounds; round++ {
		p.span(obs.RoundName, round, "round")
		p.rec.Add(obs.Rounds, 1)
		a := mld.NewKoutisAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
		total := p.koutisRoundLocal(a, mod)
		global := world.AllreduceSumMod([]uint64{total}, mod)
		p.endSpan()
		if global[0] != 0 {
			return true, nil
		}
	}
	return false, nil
}

// koutisRoundLocal runs this rank's share of one round with integer
// arithmetic; values are exchanged as uint64 vectors.
func (p *plan) koutisRoundLocal(a *mld.KoutisAssignment, mod uint64) uint64 {
	k, n2 := p.cfg.K, p.cfg.N2
	iters := uint64(1) << uint(k)
	numPhases := p.phases(k)
	steps := (numPhases + uint64(p.groups) - 1) / uint64(p.groups)

	base := make([]uint64, p.nSlots*n2)
	prev := make([]uint64, p.nSlots*n2)
	cur := make([]uint64, p.nSlots*n2)
	var total uint64
	// mod = 2^(k+1), so reduction is a mask; see mld.koutisPathRound.
	mask := mod - 1

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
			elemSec, edgeSec := p.kernelCosts(3)
			for sl := 0; sl < p.nSlots; sl++ {
				v := p.vertOf[sl]
				for q := 0; q < nb; q++ {
					// Koutis iterations use the plain mask order (no
					// Gray trick for the ±1 base case).
					base[sl*n2+q] = a.Base(v, q0+uint64(q))
				}
			}
			copy(prev, base)
			p.advanceCompute(elemSec * float64(p.nSlots) * float64(nb))
			p.countDPOps(float64(p.nSlots) * float64(nb))
			levelElems := float64(p.sumDegOwned+len(p.owned)) * float64(nb)
			levelCost := elemSec*levelElems + edgeSec*float64(p.sumDegOwned)
			for j := 2; j <= k; j++ {
				p.span(obs.LevelName, j, "level")
				p.rec.Add(obs.Levels, 1)
				for _, v := range p.owned {
					sv := int(p.slotOf[v])
					dst := cur[sv*n2 : sv*n2+nb]
					for q := range dst {
						dst[q] = 0
					}
					for _, u := range p.g.Neighbors(v) {
						su := int(p.slotOf[u])
						r := uint64(1)
						if !p.cfg.NoFingerprints {
							r = a.EdgeCoeff(u, v, j)
						}
						src := prev[su*n2 : su*n2+nb]
						for q := range dst {
							dst[q] = (dst[q] + r*src[q]) & mask
						}
					}
					b := base[sv*n2 : sv*n2+nb]
					for q := range dst {
						dst[q] = (dst[q] * b[q]) & mask
					}
				}
				p.advanceCompute(levelCost)
				p.countDPOps(levelElems)
				if j < k {
					p.exchange64(cur, n2, nb, j, j)
				}
				p.endSpan()
				prev, cur = cur, prev
			}
			for _, v := range p.owned {
				sv := int(p.slotOf[v])
				for q := 0; q < nb; q++ {
					total = (total + prev[sv*n2+q]) & mask
				}
			}
			p.advanceCompute(elemSec * float64(len(p.owned)) * float64(nb))
			p.countDPOps(float64(len(p.owned)) * float64(nb))
			p.endSpan()
		}
		p.world.Barrier()
	}
	return total
}

// exchange64 is exchange for uint64 value vectors (8 bytes per element).
func (p *plan) exchange64(vals []uint64, stride, nb, level, tag int) {
	p.span(obs.HaloName, level, "halo")
	for _, h := range p.sendTo {
		payload := make([]byte, 8*nb*len(h.slots))
		off := 0
		for _, s := range h.slots {
			vec := vals[int(s)*stride : int(s)*stride+nb]
			for _, e := range vec {
				payload[off] = byte(e)
				payload[off+1] = byte(e >> 8)
				payload[off+2] = byte(e >> 16)
				payload[off+3] = byte(e >> 24)
				payload[off+4] = byte(e >> 32)
				payload[off+5] = byte(e >> 40)
				payload[off+6] = byte(e >> 48)
				payload[off+7] = byte(e >> 56)
				off += 8
			}
		}
		p.group.Send(h.part, tag, payload)
		p.rec.Add(obs.HaloMsgs, 1)
		p.rec.Add(obs.HaloBytes, int64(len(payload)))
		p.rec.AddHaloLevel(level, int64(len(payload)))
	}
	for _, h := range p.recvFrom {
		payload := p.group.Recv(h.part, tag)
		if len(payload) != 8*nb*len(h.slots) {
			panic(fmt.Sprintf("core: koutis halo from part %d has %d bytes, want %d",
				h.part, len(payload), 8*nb*len(h.slots)))
		}
		off := 0
		for _, s := range h.slots {
			vec := vals[int(s)*stride : int(s)*stride+nb]
			for q := range vec {
				vec[q] = uint64(payload[off]) | uint64(payload[off+1])<<8 |
					uint64(payload[off+2])<<16 | uint64(payload[off+3])<<24 |
					uint64(payload[off+4])<<32 | uint64(payload[off+5])<<40 |
					uint64(payload[off+6])<<48 | uint64(payload[off+7])<<56
				off += 8
			}
		}
	}
}
