package serve

// Cross-replica lease execution: one replica's share of a distributed
// query whose phase-group world spans several midas-serve processes.
// The cluster coordinator (internal/cluster) picks a world shape,
// leases ranks 1..size-1 to peer replicas over their HTTP APIs, and
// runs rank 0 itself — every participant lands here, connecting the
// hardened TCP transport and executing the same core engine a local
// world would. The partition comes from the graph entry's cache (store
// artifact or computed once), with the same derived seed buildPlan
// uses, so every replica's rank sees bit-identical placement.

import (
	"context"
	"fmt"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/core"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/partition"
)

// LeaseWorld pins one participant's membership in a cross-replica
// world: the world's shape, this replica's rank, and the rendezvous
// address (rank 0's TCP listen address, which the coordinator owns).
type LeaseWorld struct {
	Rank     int
	Size     int
	RootAddr string
	Options  comm.TCPOptions
}

// ExecuteLease runs this replica's share of a distributed query on a
// leased TCP world. Blocks until the whole world connects (bounded by
// Options.ConnectTimeout) and the DP finishes. The returned result
// carries the answer and the world-total execution counters on rank 0;
// peer ranks return an empty result. A peer death mid-query surfaces
// as an error (the transport's send retries exhaust, or the endpoint
// closes), never a hang — the cluster layer maps it to its resilient
// retry path.
func (s *Server) ExecuteLease(ctx context.Context, req *QueryRequest, w LeaseWorld) (res *Result, err error) {
	entry, err := s.registry.get(req.Graph)
	if err != nil {
		return nil, err
	}
	cfg, err := s.distConfig(entry, req, w.Size, nil)
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	c, cerr := comm.ConnectTCPOpts(w.Rank, w.Size, w.RootAddr, comm.CostModel{}, w.Options)
	if cerr != nil {
		return nil, fmt.Errorf("serve: lease world %s rank %d/%d: %w", w.RootAddr, w.Rank, w.Size, cerr)
	}
	defer c.Close()
	// A rank blocked in recv on a lost peer's frame cannot see that
	// peer's death — only a local close unblocks the inbox. Tie the
	// world to ctx: the coordinator cancels the lease context the
	// moment any participant fails, which closes this comm and turns
	// the blocked recv into the ErrClosed panic recovered below.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-ctx.Done():
			c.Close()
		case <-watchdogDone:
		}
	}()
	// The transport signals unrecoverable peer loss by panic (the same
	// contract comm.runWorld recovers); convert it to an error here so
	// the lease fails cleanly instead of killing the process.
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			err = fmt.Errorf("serve: lease rank %d/%d: %w", w.Rank, w.Size, e)
		}
	}()
	c.EnableObs()
	res = &Result{Kind: req.Kind}
	if rerr := runDistributedKind(c, entry.G, req, cfg, res); rerr != nil {
		return res, rerr
	}
	// Fold the whole world's execution counters onto the coordinator so
	// a fleet-run query reports the same Rounds/Phases a local world
	// would (collective: every rank participates).
	snaps := c.GatherObsSnapshots(0)
	if w.Rank == 0 {
		for _, snap := range snaps {
			res.Rounds += snap.Counter(obs.Rounds)
			res.Phases += snap.Counter(obs.Phases)
		}
		res.TotalPhases = req.plannedPhases(entry.Vertices)
	}
	return res, nil
}

// distConfig derives the core configuration shared by every execution
// of a distributed query — local world or cross-replica lease. The
// partition is the graph's cached one (see partitionFor), identical on
// every replica because its seed derives from the graph digest.
func (s *Server) distConfig(entry *graphEntry, req *QueryRequest, worldSize int, tr *QueryTrace) (core.Config, error) {
	scheme := partition.Scheme(req.Scheme)
	if scheme == "" {
		scheme = partition.SchemeBlock
	}
	n1 := req.N1
	if n1 <= 0 {
		n1 = worldSize
	}
	part, err := entry.partitionFor(scheme, n1)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		K: req.K, N1: n1, N2: req.N2, Seed: req.Seed,
		Epsilon: req.Epsilon, Rounds: req.Rounds, Scheme: scheme,
		Part: part, NoTiming: true,
	}
	if tr != nil {
		cfg.Progress = func(done, _ int64) { tr.progress(done) }
	}
	return cfg, nil
}

// runDistributedKind executes one rank's share of a distributed query
// on world c, capturing the answer into res on rank 0.
func runDistributedKind(c *comm.Comm, g *graph.Graph, req *QueryRequest, cfg core.Config, res *Result) error {
	switch req.Kind {
	case KindPath:
		found, err := core.RunPath(c, g, cfg)
		if c.Rank() == 0 {
			res.Found = found
		}
		return err
	case KindTree:
		tpl, err := req.template()
		if err != nil {
			return err
		}
		found, err := core.RunTree(c, g, tpl, cfg)
		if c.Rank() == 0 {
			res.Found = found
		}
		return err
	case KindScanStat:
		table, err := core.RunScan(c, g, core.ScanConfig{Config: cfg, ZMax: req.ZMax})
		if c.Rank() == 0 {
			res.Table = table
		}
		return err
	case KindMotif:
		spec, err := req.motifSpec()
		if err != nil {
			return err
		}
		found, err := core.RunMotif(c, g, spec, cfg)
		if c.Rank() == 0 {
			res.Found = found
		}
		return err
	default:
		return fmt.Errorf("unknown query kind %q", req.Kind)
	}
}
