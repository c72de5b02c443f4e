package atsp

import (
	"fmt"

	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// Path finds a minimum-cost open path visiting every node exactly once —
// the shape of a Global Test Sequence, whose first and last patterns need
// not coincide. Starting at node v additionally costs startCost[v] (pass
// nil for free starts); ending is free. The problem is reduced to the
// cyclic ATSP by the paper's dummy-node construction: an extra node with
// zero cost from every node and startCost into every node, so cutting the
// optimal cycle at the dummy yields the optimal path.
//
// With exact=true the reduced instance is solved exactly (Held–Karp or
// branch and bound); otherwise the layered heuristics provide a fast
// near-optimal path.
func Path(m Matrix, startCost []int, exact bool) ([]int, int, error) {
	return PathOpt(nil, m, startCost, exact, PathOptions{})
}

// PathOptions tunes PathOpt beyond Path; the zero value reproduces Path
// exactly.
type PathOptions struct {
	// Workers is ignored: every exact solve runs on the calling goroutine.
	//
	// Deprecated: Workers has no effect. It remains only because the
	// benchmark's replay (perfbench/replay.go) still sets it, and goes
	// once that file stops; leave it unset.
	Workers int
	// WarmPath, when a valid open path over the instance's nodes, primes
	// the exact solve's incumbent bound (see SolveOptions.WarmTour; the
	// path is lifted to a tour of the dummy-extended matrix). Build one
	// from a related solve with CompletePath.
	WarmPath []int
	// PreferBB and CostOnly are forwarded to SolveOptions.
	PreferBB bool
	CostOnly bool
}

// PathOpt is Path under a budget meter and PathOptions: the same
// dummy-node reduction, with the exact solve optionally warm-started,
// forced onto the branch and bound, or relaxed to cost-only tie-breaking.
// The exact reduction charges mt per search node and aborts with a typed
// error on cancellation or node-budget exhaustion. The heuristic mode only
// probes for cancellation (it is the degradation target, so it must not
// consume the node budget).
func PathOpt(mt *budget.Meter, m Matrix, startCost []int, exact bool, opt PathOptions) ([]int, int, error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	if err := mt.CheckNow(); err != nil {
		return nil, 0, err
	}
	n := len(m)
	if startCost != nil && len(startCost) != n {
		return nil, 0, fmt.Errorf("atsp: startCost has %d entries, want %d", len(startCost), n)
	}
	if n == 1 {
		c := 0
		if startCost != nil {
			c = startCost[0]
		}
		return []int{0}, c, nil
	}
	ext := make(Matrix, n+1)
	for i := 0; i < n; i++ {
		ext[i] = append(append([]int(nil), m[i]...), 0) // v -> dummy: free
	}
	last := make([]int, n+1)
	for j := 0; j < n; j++ {
		if startCost != nil {
			last[j] = startCost[j]
		}
	}
	ext[n] = last

	var tour []int
	var cost int
	var err error
	if exact {
		so := SolveOptions{PreferBB: opt.PreferBB, CostOnly: opt.CostOnly}
		if validTour(n, opt.WarmPath) {
			// An open path lifts to a tour of the extended instance by
			// leading with the dummy: dummy -> path[0] costs the start,
			// path[last] -> dummy is free.
			so.WarmTour = append([]int{n}, opt.WarmPath...)
		}
		tour, cost, err = SolveExactOpt(mt, ext, so)
		if err != nil {
			return nil, 0, err
		}
	} else {
		// The heuristic layer is the degradation target; a span here makes
		// an atsp downgrade visible in the trace.
		sp := obs.From(mt.Context()).StartUnder("atsp/heuristic").SetInt("n", int64(n))
		tour, cost = bestHeuristic(ext, 0) // costs are non-negative
		sp.SetInt("cost", int64(cost)).End()
	}
	// Rotate so the dummy leads, then drop it.
	var at int
	for k, v := range tour {
		if v == n {
			at = k
			break
		}
	}
	path := append(append([]int(nil), tour[at+1:]...), tour[:at]...)
	if !validTour(n, path) {
		return nil, 0, fmt.Errorf("atsp: internal error: invalid path %v", path)
	}
	return path, cost, nil
}
