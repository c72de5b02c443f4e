package atsp

import (
	"fmt"

	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// SolveOptions tunes the exact solvers beyond the plain entry points.
type SolveOptions struct {
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
// Tests install it to assert bound admissibility at every node.
var bbBoundHook func(w Matrix, lb int)

// progressFlush is how many node expansions a solve counts before flushing
// them into the run's live-progress cell — large enough to keep the shared
// atomic off the per-node path, small enough that the streamed node rate
// tracks a long solve closely.
const progressFlush = 1024

// unset is the incumbent sentinel before any feasible tour is known. It is
// far above any reachable tour cost yet small enough that comparisons
// against lower bounds (themselves capped near Inf) cannot overflow.
const unset = Inf * 4

// bbNode is one open branch-and-bound subproblem: the constrained cost
// matrix plus the parent's assignment state with the rows invalidated by
// the branching constraints already unassigned, ready for incremental
// re-augmentation (see apState).
type bbNode struct {
	w  Matrix
	ap *apState
}

// bbBranch branches a subproblem on the shortest subtour of its optimal
// assignment, the classic Carpaneto–Dell'Amico–Toth scheme: child k
// forbids arc k of the subtour and forces arcs 0..k-1 by walling every
// alternative leaving their tail or entering their head. Each child clones
// the parent's assignment state and unassigns exactly the rows whose
// matched arc a new wall destroyed, so bounding the child re-augments only
// those rows instead of re-solving from scratch. The children are pushed
// onto stack in order k = 0, 1, …, so the last one is expanded first.
func bbBranch(stack []bbNode, nd bbNode, rowToCol []int, cycle []int) []bbNode {
	for k := 0; k < len(cycle); k++ {
		child := bbNode{w: nd.w.Clone(), ap: nd.ap.clone()}
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
		stack = append(stack, child)
	}
	return stack
}

// BranchBound solves the cyclic ATSP exactly by depth-first branch and
// bound over the assignment-problem relaxation, in the style of Carpaneto,
// Dell'Amico and Toth's exact code used by the paper: the incremental
// Hungarian state provides the lower bound, and the search branches on the
// arcs of the shortest subtour of each node's optimal assignment.
func BranchBound(m Matrix) ([]int, int, error) {
	return BranchBoundOpt(nil, m, SolveOptions{})
}

// BranchBoundOpt is the full-control branch and bound; see SolveOptions.
// Every search node charges mt, so the solve aborts with a typed error on
// context cancellation or ATSP node-budget exhaustion (nil meter:
// unbounded). The search runs on the calling goroutine.
//
// Determinism contract: subtrees are pruned only when their assignment
// bound strictly exceeds the incumbent cost, so every node whose bound
// does not exceed the optimum is explored whatever the incumbent was
// primed with. The set of optimal feasible tours the search reaches is
// therefore independent of the priming, and the lexicographically
// smallest of them (canonical rotation, lexLess order) is returned —
// identical for warm and cold solves (CostOnly excepted).
func BranchBoundOpt(mt *budget.Meter, m Matrix, opt SolveOptions) ([]int, int, error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(m)
	if n == 1 {
		return []int{0}, 0, nil
	}
	work := m.Clone()
	for i := 0; i < n; i++ {
		work[i][i] = Inf
	}
	run := obs.From(mt.Context())
	sp := run.StartUnder("atsp/branchbound").SetInt("n", int64(n))
	s := &bbSearch{orig: m, mt: mt, bound: unset, prog: run.Progress()}
	defer func() {
		run.Counter("atsp.bb.expanded").Add(s.expanded)
		run.Counter("atsp.bb.pruned").Add(s.pruned)
		s.prog.AddNodes(s.expanded - s.flushed)
		sp.SetInt("expanded", s.expanded).SetInt("pruned", s.pruned)
		sp.End()
	}()
	// Bound the root first: the warm shortcut and the root-Hamiltonian case
	// then return without branching at all, and a cost-only solve whose
	// warm tour already meets the bound skips the heuristic incumbent too.
	if err := mt.Node(); err != nil {
		return nil, 0, err
	}
	s.expanded++
	root := bbNode{w: work, ap: newAPState(n)}
	rowToCol, lb := root.ap.solve(work)
	if hook := bbBoundHook; hook != nil {
		hook(work, lb)
	}
	if lb >= Inf {
		s.pruned++
		return nil, 0, fmt.Errorf("atsp: no feasible tour")
	}
	// Upper bounds prime the pruning only. Keeping the incumbent tour
	// empty until the search reaches an optimal leaf itself makes the
	// returned tour independent of the priming (see the contract above).
	// The warm tour wins ties with the heuristic one. The heuristic stops
	// at the first polished tour that meets the root bound: no tour is
	// cheaper, so it returns what its full scan would.
	var incTour []int
	incCost := Inf
	warmCost := Inf
	if opt.WarmTour != nil && validTour(n, opt.WarmTour) {
		run.Counter("atsp.bb.warm").Inc()
		warmCost = m.TourCost(opt.WarmTour)
	}
	if !opt.CostOnly || warmCost != lb {
		if tour, cost := bestHeuristic(m, lb); validTour(n, tour) && cost < Inf {
			incTour, incCost = canonical(tour), cost
		}
	}
	if warmCost < Inf && warmCost <= incCost {
		incTour, incCost = canonical(opt.WarmTour), warmCost
	}
	if incCost < Inf {
		s.bound = incCost
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
	if err := s.search(bbBranch(nil, root, rowToCol, cycle)); err != nil {
		return nil, 0, err
	}
	if s.best == nil {
		return nil, 0, fmt.Errorf("atsp: no feasible tour")
	}
	sp.SetInt("incumbent", int64(s.bound))
	return s.best, s.bound, nil
}

// bbSearch is one branch-and-bound solve's search state, owned by the
// goroutine that runs the solve.
type bbSearch struct {
	orig Matrix
	mt   *budget.Meter
	// bound is the incumbent tour cost (unset, or the primed upper bound,
	// until the search reaches a tour) and best the incumbent tour, nil
	// until the search itself reaches an optimal leaf.
	bound int
	best  []int
	// prog is the run's live-progress surface (nil-safe) and rootLB the
	// root relaxation bound: offer publishes every incumbent improvement
	// against it. flushed is the part of expanded already added to prog.
	prog    *obs.Progress
	rootLB  int64
	flushed int64

	expanded, pruned int64
}

// search expands the open subproblems on stack depth-first, last pushed
// first, until none is left or the meter aborts the solve. Each node is
// bounded by re-augmenting its inherited assignment state (only the rows
// the branching constraints dirtied), recorded when the assignment is a
// feasible tour, and otherwise branched on exactly as the CDT scheme
// prescribes. Pruning is strict (bound must *exceed* the incumbent cost):
// a subproblem whose bound ties the incumbent may still hold an
// equal-cost tour that wins the lexicographic tie-break, and exploring
// all of them is what makes the returned tour independent of the priming.
func (s *bbSearch) search(stack []bbNode) error {
	for len(stack) > 0 {
		if s.expanded-s.flushed >= progressFlush {
			s.prog.AddNodes(s.expanded - s.flushed)
			s.flushed = s.expanded
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := s.mt.Node(); err != nil {
			return err
		}
		s.expanded++
		rowToCol, lb := nd.ap.solve(nd.w)
		if hook := bbBoundHook; hook != nil {
			hook(nd.w, lb)
		}
		if lb > s.bound || lb >= Inf {
			s.pruned++
			continue
		}
		cycle := shortestSubtour(rowToCol)
		if len(cycle) == len(rowToCol) {
			s.offer(cycle)
			continue
		}
		stack = bbBranch(stack, nd, rowToCol, cycle)
	}
	return nil
}

// offer records a feasible tour, keeping the cheapest — and among
// equal-cost optima the lexicographically smallest canonical tour, so the
// final incumbent does not depend on the order the search reached them.
func (s *bbSearch) offer(cycle []int) {
	cost := s.orig.TourCost(cycle)
	if cost > s.bound {
		return
	}
	tour := canonical(cycle)
	if cost < s.bound || s.best == nil || lexLess(tour, s.best) {
		s.best, s.bound = tour, cost
		s.prog.Search(int64(cost), s.rootLB)
	}
}

// lexLess orders tours lexicographically.
func lexLess(a, b []int) bool {
	for k := range a {
		if k >= len(b) {
			return false
		}
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
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
	return SolveExactOpt(nil, m, SolveOptions{})
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
