package service

import (
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
)

// Distributor is the seam between the job manager and the distributed
// solve cluster (internal/cluster). The manager stays cluster-agnostic:
// when Config.Distributor is nil (single-node mode, the default)
// nothing below this interface exists and execution is byte-for-byte
// the pre-cluster behavior. When set, every executing solve is
// announced through SolveStarted so the cluster can feed remote
// incumbents into its store, broadcast its improvements, and replicate
// its finished result.
type Distributor interface {
	// SolveStarted registers a solve that is about to execute and
	// returns the cluster's per-solve hooks. The SolveStart fields are
	// live for the duration of the solve; the cluster must stop using
	// them after Done.
	SolveStarted(s SolveStart) DistributedSolve
	// ResultCached observes a finished result entering the local
	// solution cache, keyed by the full solve key. The result is in
	// canonical index space, so any peer can serve it to any
	// request that canonicalizes to the same instance.
	ResultCached(key string, res *SolveResult)
}

// SolveStart describes one executing solve to the Distributor.
type SolveStart struct {
	// Key is the full solve key (canonical hash + solve-shaping
	// parameters): identical keys are identical solves cluster-wide.
	Key string
	// Compiled and Constraints are the canonical compiled instance and
	// the constraint set the solve runs under (pruning-derived edges
	// included): what a remote incumbent is checked against and its
	// objective recomputed from before it enters Store.
	Compiled    *model.Compiled
	Constraints *constraint.Set
	// Store is the live shared incumbent store for this solve. Remote
	// incumbents go in through Store.Offer (feasibility-validated);
	// every backend on this node prunes against whatever it holds.
	Store *portfolio.Store
}

// DistributedSolve is the cluster's handle bundle for one live solve.
type DistributedSolve interface {
	// Improved observes every local incumbent improvement (order in
	// canonical index space, a private copy) for broadcast to peers.
	Improved(order []int, objective float64)
	// Done unregisters the solve; no hook fires after it returns.
	Done()
}
