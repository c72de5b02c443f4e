package atsp

import (
	"fmt"
	"runtime"
	"sync"

	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// SolveOptions tunes the exact solvers beyond the plain entry points.
type SolveOptions struct {
	// Workers fans the branch-and-bound subtree exploration over N
	// goroutines (<= 0: GOMAXPROCS, 1: sequential). The returned tour and
	// cost are identical at any worker count.
	Workers int
	// WarmTour, when non-nil and a feasible tour of the instance, primes
	// the incumbent upper bound with its cost. Warm starts change node
	// counts only, never the returned tour or cost: the incumbent tour
	// stays empty until the search itself reaches an optimal leaf, so the
	// result is the same deterministic lex-min optimal tour as a cold
	// solve.
	WarmTour []int
	// PreferBB routes even small instances to the assignment-bound branch
	// and bound instead of the Held–Karp dynamic program. On TPG-sized
	// matrices the AP bound is near-tight, so the search expands a handful
	// of nodes where Held–Karp charges O(2ⁿ·n²) states.
	PreferBB bool
	// CostOnly lets the solver return any optimal tour, not necessarily
	// the lex-min one: when the root assignment bound already equals the
	// warm (or heuristic) incumbent cost, the incumbent tour is returned
	// with zero branching. Callers that only consume the optimal cost —
	// the optimal-path enumeration does — get the full warm-start saving.
	CostOnly bool
}

// bbBoundHook, when non-nil, observes every branch-and-bound subproblem:
// the constrained matrix and the assignment lower bound computed for it.
// Tests install it to assert bound admissibility at every node; a hook used
// under Workers > 1 is called concurrently and must synchronise itself.
var bbBoundHook func(w Matrix, lb int)

// bbNode is one open branch-and-bound subproblem: the constrained cost
// matrix plus the parent's assignment state with the rows invalidated by
// the branching constraints already unassigned, ready for incremental
// re-augmentation (see apState).
type bbNode struct {
	w  Matrix
	ap *apState
	// lag carries the Lagrangian multipliers of the nearest escalated
	// ancestor (nil: none), warm-starting this node's own escalation the
	// same way ap reuses the parent's reduced costs. Shared read-only
	// down the subtree; lagrangeBound copies before updating.
	lag []int
}

// release returns the node's matrix and assignment state to their pools.
// Callers must be done with both — children have already cloned them,
// and any hook that keeps the matrix has cloned it too.
func (nd *bbNode) release() {
	releaseMatrix(nd.w)
	nd.ap.release()
}

// bbBranch branches a subproblem on the shortest subtour of its optimal
// assignment, the classic Carpaneto–Dell'Amico–Toth scheme: child k
// forbids arc k of the subtour and forces arcs 0..k-1 by walling every
// alternative leaving their tail or entering their head. Each child clones
// the parent's assignment state and unassigns exactly the rows whose
// matched arc a new wall destroyed, so bounding the child re-augments only
// those rows instead of re-solving from scratch.
func bbBranch(nd bbNode, rowToCol []int, cycle []int) []bbNode {
	children := make([]bbNode, 0, len(cycle))
	for k := 0; k < len(cycle); k++ {
		child := bbNode{w: cloneInto(nd.w), ap: nd.ap.clonePooled(), lag: nd.lag}
		forbid := func(i, j int) {
			if child.w[i][j] < Inf {
				child.w[i][j] = Inf
				if rowToCol[i] == j {
					child.ap.unassignRow(i + 1)
				}
			}
		}
		from, to := cycle[k], cycle[(k+1)%len(cycle)]
		forbid(from, to)
		for f := 0; f < k; f++ {
			ff, ft := cycle[f], cycle[(f+1)%len(cycle)]
			for j := range child.w[ff] {
				if j != ft {
					forbid(ff, j)
				}
			}
			for i := range child.w {
				if i != ff {
					forbid(i, ft)
				}
			}
		}
		children = append(children, child)
	}
	return children
}

// BranchBound solves the cyclic ATSP exactly by depth-first branch and
// bound over the assignment-problem relaxation, in the style of Carpaneto,
// Dell'Amico and Toth's exact code used by the paper: the incremental
// Hungarian state provides the lower bound, and the search branches on the
// arcs of the shortest subtour of each node's optimal assignment.
func BranchBound(m Matrix) ([]int, int, error) {
	return BranchBoundOpt(nil, m, SolveOptions{Workers: 1})
}

// BranchBoundMeter is BranchBound under a budget meter: every search node
// charges the meter, so the solve aborts with a typed error on context
// cancellation or ATSP node-budget exhaustion (nil meter: unbounded).
func BranchBoundMeter(mt *budget.Meter, m Matrix) ([]int, int, error) {
	return BranchBoundOpt(mt, m, SolveOptions{Workers: 1})
}

// BranchBoundOpt is the full-control branch and bound; see SolveOptions.
//
// Determinism contract: subtrees are pruned only when their assignment
// bound strictly exceeds the incumbent cost, so every node whose bound
// does not exceed the optimum is explored at any worker count and under
// any schedule. The set of optimal feasible tours the search reaches is
// therefore schedule-independent, and the lexicographically smallest of
// them (canonical rotation, lexLess order) is returned — identical for
// sequential, parallel, warm and cold solves (CostOnly excepted).
func BranchBoundOpt(mt *budget.Meter, m Matrix, opt SolveOptions) (_ []int, _ int, err error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(m)
	if n == 1 {
		return []int{0}, 0, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	work := m.Clone()
	for i := 0; i < n; i++ {
		work[i][i] = Inf
	}
	run := obs.From(mt.Context())
	sp := run.StartUnder("atsp/branchbound").SetInt("n", int64(n))
	if workers > 1 {
		sp.SetInt("workers", int64(workers))
	}
	s := &bbShared{orig: m, mt: mt, queues: make([]bbQueue, workers), prog: run.Progress()}
	s.bound.Store(unset)
	// Slackness windows start saturated (every bit a prune), so the
	// Lagrangian rung engages only after the AP bound has demonstrably
	// gone slack over a window of real expansions.
	s.windows = make([]slackWindow, workers)
	for i := range s.windows {
		s.windows[i] = ^slackWindow(0)
	}
	rootExpanded, rootPruned := 0, 0
	defer func() {
		// Aggregated totals: deterministic for one worker (the explored
		// set and visit order are fixed), schedule-dependent beyond — so
		// the span carries them only in the sequential case, while the
		// metrics registry always does.
		expanded := s.expanded.Load() + int64(rootExpanded)
		pruned := s.pruned.Load() + int64(rootPruned)
		run.Counter("atsp.bb.expanded").Add(expanded)
		run.Counter("atsp.bb.pruned").Add(pruned)
		run.Counter("atsp.bb.steals").Add(s.steals.Load())
		run.Counter("atsp.bb.escalated").Add(s.escalated.Load())
		run.Counter("atsp.bb.escpruned").Add(s.escPruned.Load())
		s.prog.AddNodes(int64(rootExpanded))
		if workers == 1 {
			sp.SetInt("expanded", expanded).SetInt("pruned", pruned)
		}
		sp.End()
	}()
	// Bound the root first: the warm shortcut and the root-Hamiltonian case
	// then return without starting the worker engine at all, and a
	// cost-only solve whose warm tour already meets the bound skips the
	// heuristic incumbent too.
	if err := mt.Node(); err != nil {
		return nil, 0, err
	}
	rootExpanded++
	root := bbNode{w: work, ap: apStateFor(n)}
	rowToCol, lb := root.ap.solve(work)
	if hook := bbBoundHook; hook != nil {
		hook(work, lb)
	}
	if lb >= Inf {
		rootPruned++
		return nil, 0, fmt.Errorf("atsp: no feasible tour")
	}
	// Upper bounds prime the pruning only. Keeping the incumbent tour
	// empty until the search reaches an optimal leaf itself makes the
	// returned tour independent of the priming (see the contract above).
	// The warm tour wins ties with the heuristic one.
	var incTour []int
	incCost := Inf
	warmCost := Inf
	if opt.WarmTour != nil && validTour(n, opt.WarmTour) {
		run.Counter("atsp.bb.warm").Inc()
		warmCost = m.TourCost(opt.WarmTour)
	}
	if !opt.CostOnly || warmCost != lb {
		if tour, cost := bestHeuristic(m); validTour(n, tour) && cost < Inf {
			incTour, incCost = canonical(tour), cost
		}
	}
	if warmCost < Inf && warmCost <= incCost {
		incTour, incCost = canonical(opt.WarmTour), warmCost
	}
	if incCost < Inf {
		s.bound.Store(int64(incCost))
	}
	// The root relaxation is the solve's global lower bound: publish it
	// against the primed incumbent, and stamp it on the span so recorded
	// traces carry the bound ≤ incumbent invariant tracecheck validates.
	s.rootLB = int64(lb)
	sp.SetInt("bound", int64(lb))
	if incCost < Inf {
		s.prog.Search(int64(incCost), int64(lb))
	} else {
		s.prog.Search(-1, int64(lb))
	}
	if opt.CostOnly && incTour != nil && lb == incCost {
		// The relaxation is tight against the incumbent: the incumbent is
		// optimal and the caller does not need the canonical tour.
		run.Counter("atsp.bb.warmshort").Inc()
		sp.SetInt("incumbent", int64(incCost))
		s.prog.Search(int64(incCost), int64(lb))
		return incTour, incCost, nil
	}
	cycle := shortestSubtour(rowToCol)
	if len(cycle) == n {
		// The root assignment is a single Hamiltonian cycle: it is the
		// only tour the offered-set contract reaches, and it is optimal.
		cost := m.TourCost(cycle)
		sp.SetInt("incumbent", int64(cost))
		s.prog.Search(int64(cost), int64(lb))
		return canonical(cycle), cost, nil
	}
	for _, child := range bbBranch(root, rowToCol, cycle) {
		s.outstanding.Add(1)
		s.queues[0].push(child)
	}
	root.release() // children cloned what they need
	if workers == 1 {
		s.worker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(id int) {
				defer wg.Done()
				s.worker(id)
			}(w)
		}
		wg.Wait()
	}
	if err := s.failure(); err != nil {
		return nil, 0, err
	}
	if s.best == nil {
		return nil, 0, fmt.Errorf("atsp: no feasible tour")
	}
	sp.SetInt("incumbent", s.bound.Load())
	return s.best, int(s.bound.Load()), nil
}

// shortestSubtour extracts the shortest cycle of the assignment
// permutation, returned in traversal order.
func shortestSubtour(rowToCol []int) []int {
	n := len(rowToCol)
	seen := make([]bool, n)
	var best []int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var cyc []int
		for v := s; !seen[v]; v = rowToCol[v] {
			seen[v] = true
			cyc = append(cyc, v)
		}
		if best == nil || len(cyc) < len(best) {
			best = cyc
		}
	}
	return best
}

// SolveExact dispatches to Held–Karp for small instances and branch and
// bound beyond, cross-checking nothing at runtime (the test suite asserts
// both agree).
func SolveExact(m Matrix) ([]int, int, error) {
	return SolveExactMeter(nil, m)
}

// SolveExactMeter is SolveExact under a budget meter.
func SolveExactMeter(mt *budget.Meter, m Matrix) ([]int, int, error) {
	return SolveExactOpt(mt, m, SolveOptions{Workers: 1})
}

// SolveExactOpt is SolveExact under SolveOptions: PreferBB overrides the
// small-instance Held–Karp dispatch (warm starts only help the branch and
// bound — the dynamic program's state count is fixed by n).
func SolveExactOpt(mt *budget.Meter, m Matrix, opt SolveOptions) ([]int, int, error) {
	if !opt.PreferBB && len(m) <= 13 {
		return HeldKarpMeter(mt, m)
	}
	return BranchBoundOpt(mt, m, opt)
}
