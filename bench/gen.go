package main

// Seed-derived inputs. Everything a workload sends to the server — edge
// lists, weights, labels, planted structures — is generated here from the
// run seed; the server receives only the generated inputs.
//
// Every graph has an exact edge count (plants are added first and the
// random base tops the list up to m), so the DP work of a query does not
// drift with the seed: the 2^k·k·m sweep is the same size on every run.

import (
	"fmt"
	"math"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/rng"
)

// instance is one generated graph: the payload POSTed to /v1/graphs plus
// a local copy for the direct library calls of the per-layer ladder.
type instance struct {
	name    string
	n       int
	edges   [][2]int32
	weights []int64
	labels  []int32
	g       *graph.Graph
}

func (in *instance) build() {
	in.g = graph.FromEdges(in.n, in.edges)
	if in.weights != nil {
		in.g.SetWeights(in.weights)
	}
	if in.labels != nil {
		in.g.SetLabels(in.labels)
	}
}

// edgeSet accumulates distinct undirected edges in insertion order.
type edgeSet struct {
	seen  map[uint64]struct{}
	edges [][2]int32
}

func newEdgeSet(capacity int) *edgeSet {
	return &edgeSet{seen: make(map[uint64]struct{}, capacity), edges: make([][2]int32, 0, capacity)}
}

func (s *edgeSet) add(u, v int32) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	key := uint64(u)<<32 | uint64(v)
	if _, dup := s.seen[key]; dup {
		return false
	}
	s.seen[key] = struct{}{}
	s.edges = append(s.edges, [2]int32{u, v})
	return true
}

// fill tops the set up to exactly m edges from base (in base's order).
func (s *edgeSet) fill(base [][2]int32, m int) {
	for _, e := range base {
		if len(s.edges) >= m {
			return
		}
		s.add(e[0], e[1])
	}
	if len(s.edges) != m {
		panic(fmt.Sprintf("bench: base graph too small: %d of %d edges", len(s.edges), m))
	}
}

// nLogN is the paper's random-* dataset density: m = round(n·ln n).
func nLogN(n int) int { return int(math.Round(float64(n) * math.Log(float64(n)))) }

// distinct draws count distinct vertices of [0,n).
func distinct(r *rng.Rand, n, count int) []int32 {
	perm := r.Perm(n)
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(perm[i])
	}
	return out
}

// plantPath adds a simple path through vs.
func plantPath(s *edgeSet, vs []int32) {
	for i := 1; i < len(vs); i++ {
		s.add(vs[i-1], vs[i])
	}
}

// caterpillar7 is the kinds-wide tree template: a 4-vertex spine with a
// leg on spine vertices 1, 2 and 3.
var caterpillar7 = [][2]int32{{0, 1}, {1, 2}, {2, 3}, {1, 4}, {2, 5}, {3, 6}}

// plantTemplate embeds a template's edges on vs (vs[i] hosts template vertex i).
func plantTemplate(s *edgeSet, tpl [][2]int32, vs []int32) {
	for _, e := range tpl {
		s.add(vs[e[0]], vs[e[1]])
	}
}

// cliqueTwin is the "no" instance: ⌊n/size⌋ disjoint cliques of the given
// size, so no connected subgraph — path, tree or motif — has more than
// size vertices. Labels are one colour outside every constraint and
// weights are zero, which also makes motif and scan cells infeasible.
func cliqueTwin(name string, n, size int, labelled, weighted bool) *instance {
	in := &instance{name: name, n: n}
	for base := 0; base+size <= n; base += size {
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				in.edges = append(in.edges, [2]int32{int32(base + u), int32(base + v)})
			}
		}
	}
	if labelled {
		in.labels = make([]int32, n)
		for i := range in.labels {
			in.labels[i] = strippedColour
		}
	}
	if weighted {
		in.weights = make([]int64, n)
	}
	in.build()
	return in
}

const (
	numColours     = 6 // main graphs are labelled uniformly from [0,6)
	strippedColour = 7 // the twins' only colour; no constraint names it
)

// motifCounts is the colour constraint every motif query carries: at
// least two vertices of colour 0 and one of colour 1.
var motifCounts = map[string]int{"0": 2, "1": 1}

func randomLabels(r *rng.Rand, n int) []int32 {
	l := make([]int32, n)
	for i := range l {
		l[i] = int32(r.Intn(numColours))
	}
	return l
}

// plantMotif colours vs so that any connected subgraph on vs satisfies
// motifCounts, and connects vs by a path.
func plantMotif(s *edgeSet, labels []int32, vs []int32) {
	plantPath(s, vs)
	labels[vs[0]], labels[vs[1]], labels[vs[2]] = 0, 0, 1
}

// randomEdges is G(n, m): m distinct uniform edges.
func randomEdges(r *rng.Rand, n, m int) [][2]int32 {
	return graph.RandomGNM(n, m, r.Uint64()).Edges()
}

// baEdges is a Barabási–Albert preferential-attachment graph; its edge
// count is fixed by (n, attach).
func baEdges(r *rng.Rand, n, attach int) [][2]int32 {
	return graph.BarabasiAlbert(n, attach, r.Uint64()).Edges()
}
