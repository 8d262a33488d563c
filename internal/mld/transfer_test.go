package mld

import (
	"context"
	"errors"
	"testing"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/rng"
)

// TestAccumulateMatchesElementwiseXor pins the word-wise accumulate to
// the element-wise XOR at lengths 0–67 and every start offset 0–7, so
// each head (0–3 elements to an 8-byte boundary) meets each tail.
func TestAccumulateMatchesElementwiseXor(t *testing.T) {
	r := rng.New(9)
	buf := make([]gf.Elem, 8+67)
	for i := range buf {
		buf[i] = gf.Elem(r.Uint32())
	}
	for off := 0; off < 8; off++ {
		for n := 0; n <= 67; n++ {
			vals := buf[off : off+n]
			want := gf.Elem(0x1234)
			for _, v := range vals {
				want ^= v
			}
			st := &laneState{total: 0x1234}
			st.accumulate(vals)
			if st.total != want {
				t.Fatalf("offset %d, length %d: accumulate gave %#x, want %#x", off, n, st.total, want)
			}
		}
	}
}

// refPathTotal is the k-path round total straight from the definition:
// one scalar DP per iteration, P(i,1) = x_i and
// P(i,j) = x_i·Σ_u r(u,i,j)·P(u,j−1), XORed over vertices and all 2^k
// iterations.
func refPathTotal(g *graph.Graph, a *Assignment, noFP bool) gf.Elem {
	n := g.NumVertices()
	x, prev, cur := make([]gf.Elem, n), make([]gf.Elem, n), make([]gf.Elem, n)
	var total gf.Elem
	for t := uint64(0); t < 1<<uint(a.K); t++ {
		for i := range x {
			x[i] = a.VertexValue(int32(i), t)
		}
		copy(prev, x)
		for j := 2; j <= a.K; j++ {
			for i := range cur {
				var s gf.Elem
				for _, u := range g.Neighbors(int32(i)) {
					r := gf.Elem(1)
					if !noFP {
						r = a.EdgeCoeff(u, int32(i), j)
					}
					s ^= gf.Mul(r, prev[u])
				}
				cur[i] = gf.Mul(x[i], s)
			}
			prev, cur = cur, prev
		}
		for _, v := range prev {
			total ^= v
		}
	}
	return total
}

// refTreeTotal is refPathTotal for a tree template: leaves bind x_i,
// an internal node j sets P(i,j) = P(i,left)·Σ_u r(u,i,j)·P(u,right).
func refTreeTotal(g *graph.Graph, d *graph.Decomposition, a *Assignment, noFP bool) gf.Elem {
	n := g.NumVertices()
	vals := make([][]gf.Elem, len(d.Nodes))
	for j := range vals {
		vals[j] = make([]gf.Elem, n)
	}
	var total gf.Elem
	for t := uint64(0); t < 1<<uint(a.K); t++ {
		for j, nd := range d.Nodes {
			for i := range vals[j] {
				if nd.Left < 0 {
					vals[j][i] = a.VertexValue(int32(i), t)
					continue
				}
				var s gf.Elem
				for _, u := range g.Neighbors(int32(i)) {
					r := gf.Elem(1)
					if !noFP {
						r = a.EdgeCoeff(u, int32(i), j)
					}
					s ^= gf.Mul(r, vals[nd.Right][u])
				}
				vals[j][i] = gf.Mul(vals[nd.Left][i], s)
			}
		}
		for _, v := range vals[d.Root] {
			total ^= v
		}
	}
	return total
}

// sweepShapes are the widths × workers × fingerprint settings the
// transfer equivalence tests run: a narrow width (many phases, the
// coefficient stream read back in all but the first), the pre-planner
// default, the planned width and one phase of 2^k.
func sweepShapes(n, k, slabs int) []Options {
	var out []Options
	for _, n2 := range []int{16, 128, PlanN2(0, n, k, slabs), 1 << uint(k)} {
		for _, w := range []int{1, 2, 3} {
			for _, noFP := range []bool{false, true} {
				out = append(out, Options{N2: n2, Workers: w, NoFingerprints: noFP})
			}
		}
	}
	return out
}

// TestPathTransferMatchesDefinition: path round totals equal the scalar
// definition at every width, worker count and fingerprint setting, on
// 20 seeded n·ln n graphs with k = 5…11.
func TestPathTransferMatchesDefinition(t *testing.T) {
	arena := NewArena()
	for s := 0; s < 20; s++ {
		n, k := 24+3*s, 5+s%7
		g := graph.RandomNLogN(n, uint64(100+s))
		a := NewPathAssignment(n, k, uint64(s), 0)
		want := map[bool]gf.Elem{false: refPathTotal(g, a, false), true: refPathTotal(g, a, true)}
		for _, opt := range sweepShapes(n, k, PathSlabs) {
			opt.Arena = arena
			got, err := pathRound(g, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[opt.NoFingerprints] {
				t.Fatalf("graph %d (n=%d, k=%d) N2=%d workers=%d noFP=%v: total %#x, want %#x",
					s, n, k, opt.N2, opt.Workers, opt.NoFingerprints, got, want[opt.NoFingerprints])
			}
		}
	}
}

// TestTreeTransferMatchesDefinition is the tree counterpart, on the
// templates of tree_scan_test.go and random ones.
func TestTreeTransferMatchesDefinition(t *testing.T) {
	tpls := []*graph.Template{
		graph.PathTemplate(5), graph.StarTemplate(5), graph.StarTemplate(6),
		graph.BinaryTreeTemplate(7), graph.BinaryTreeTemplate(8), graph.MustTemplate(1, nil),
	}
	for k := 3; k <= 8; k++ {
		tpls = append(tpls, graph.RandomTemplate(k, uint64(k)))
	}
	arena := NewArena()
	for s, tpl := range tpls {
		n, k := 30+4*s, tpl.K()
		g := graph.RandomNLogN(n, uint64(200+s))
		d := tpl.Decompose()
		a := NewTreeAssignment(n, k, uint64(s), 0)
		want := map[bool]gf.Elem{false: refTreeTotal(g, d, a, false), true: refTreeTotal(g, d, a, true)}
		for _, opt := range sweepShapes(n, k, LevelSlabs(k)) {
			opt.Arena = arena
			got, err := treeRound(g, d, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[opt.NoFingerprints] {
				t.Fatalf("template %d (n=%d, k=%d) N2=%d workers=%d noFP=%v: total %#x, want %#x",
					s, n, k, opt.N2, opt.Workers, opt.NoFingerprints, got, want[opt.NoFingerprints])
			}
		}
	}
}

// TestCancelWithHalfFilledCoeffStream cancels a multi-phase sweep
// inside phase 0, after half its levels have written their coefficients
// to the stream: every slab it grabbed — DP state, stream and chunk
// buffer — is back in the arena, and the next sweep on that arena, which
// gets the stream back zeroed, gives the golden total.
func TestCancelWithHalfFilledCoeffStream(t *testing.T) {
	g := graph.RandomNLogN(200, 7)
	const k, n2 = 11, 128
	n, m2 := g.NumVertices(), len(g.Adj())
	for _, c := range []struct {
		name          string
		levels, steps int // fingerprinted levels; transfer steps
		round         func(opt Options) (gf.Elem, error)
	}{
		{"path", k - 1, k - 1, func(opt Options) (gf.Elem, error) {
			return pathRound(g, NewPathAssignment(n, k, 3, 0), opt)
		}},
		{"tree", k - 1, 2*k - 1, func(opt Options) (gf.Elem, error) {
			tpl := graph.BinaryTreeTemplate(k)
			return treeRound(g, tpl.Decompose(), NewTreeAssignment(n, k, 3, 0), opt)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			golden, err := c.round(Options{N2: n2, Arena: NewArena()})
			if err != nil {
				t.Fatal(err)
			}
			if golden == 0 {
				t.Fatal("golden total is zero: the instance pins nothing")
			}
			arena := NewArenaCap(0, 0)
			// The phase check passes, then half the level checks.
			_, err = c.round(Options{N2: n2, Arena: arena, Ctx: countdown(1 + int64(c.steps)/2)})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled inside phase 0", err)
			}
			slabs := int64(2 * n * n2 * PathSlabs)
			if c.name == "tree" {
				slabs = int64(2 * n * n2 * LevelSlabs(k))
			}
			fbuf := 2 * formChunk * (gf.FormElems + 1)
			want := slabs + int64(2*m2*c.levels) + int64(fbuf)
			if got := arena.RetainedBytes(); got != want {
				t.Fatalf("arena retains %d bytes after the cancel, want %d (state %d + stream %d + form buffer %d)",
					got, want, slabs, 2*m2*c.levels, fbuf)
			}
			got, err := c.round(Options{N2: n2, Arena: arena})
			if err != nil {
				t.Fatal(err)
			}
			if got != golden {
				t.Fatalf("total after the cancelled sweep %#x, want the golden %#x", got, golden)
			}
		})
	}
}

// TestCoeffStreamOnlyForMultiPhaseRounds: a one-phase round, a
// NoFingerprints run and a stream over its budget take no stream.
func TestCoeffStreamOnlyForMultiPhaseRounds(t *testing.T) {
	g := graph.RandomNLogN(100, 1)
	const k = 8
	for _, c := range []struct {
		name string
		n2   int
		opt  Options
		want bool
	}{
		{"multi-phase", 64, Options{}, true},
		{"one phase", 1 << k, Options{}, false},
		{"no fingerprints", 64, Options{NoFingerprints: true}, false},
	} {
		st := assignedLane(NewPathAssignment(g.NumVertices(), k, 1, 0))
		e := &laneRun{g: g, opt: c.opt, n2: c.n2, st: st}
		e.grabCoeffs(k - 1)
		if got := e.coeffs != nil; got != c.want {
			t.Errorf("%s: stream grabbed = %v, want %v", c.name, got, c.want)
		}
		if c.want && len(e.coeffs) != (k-1)*len(g.Adj()) {
			t.Errorf("%s: stream has %d elements, want 2m·levels = %d", c.name, len(e.coeffs), (k-1)*len(g.Adj()))
		}
		e.putCoeffs()
	}
	e := &laneRun{g: g, n2: 64, st: assignedLane(NewPathAssignment(g.NumVertices(), k, 1, 0))}
	levels := coeffStreamBudget/(2*len(g.Adj())) + 1
	if e.grabCoeffs(levels); e.coeffs != nil {
		t.Errorf("a %d-level stream of %d bytes was grabbed over the %d-byte budget",
			levels, 2*levels*len(g.Adj()), coeffStreamBudget)
	}
}
