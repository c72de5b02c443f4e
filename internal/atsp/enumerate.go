package atsp

import (
	"fmt"

	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// OptimalPaths enumerates open paths of exactly the optimal cost (the same
// objective as Path with exact=true): different optimal visits can fold
// into March tests of different quality downstream, so the caller wants
// them all. At most limit paths are returned; the search is additionally
// capped at a fixed node budget as a safety valve (the instances produced
// by Test Pattern Graphs are small).
func OptimalPaths(m Matrix, startCost []int, limit int) ([][]int, int, error) {
	return OptimalPathsOpt(nil, m, startCost, limit, PathOptions{})
}

// OptimalPathsOpt is OptimalPaths under a budget meter and PathOptions.
// Both the exact solve establishing the optimum and the enumeration charge
// mt per search node, so the call aborts with a typed error on
// cancellation or node-budget exhaustion (nil meter: only the built-in
// safety valve). The establishing solve can be warm-started and routed to
// the branch and bound, while the enumeration itself is untouched — its
// emission order feeds the rewrite engine, so the returned paths are
// byte-identical whatever the options. CostOnly is forced: only the
// optimal cost survives into the enumeration, so the establishing solve
// never needs the canonical tour.
func OptimalPathsOpt(mt *budget.Meter, m Matrix, startCost []int, limit int, opt PathOptions) ([][]int, int, error) {
	if limit <= 0 {
		limit = 16
	}
	opt.CostOnly = true
	_, best, err := PathOpt(mt, m, startCost, true, opt)
	if err != nil {
		return nil, 0, err
	}
	n := len(m)
	// minOut[v] is a simple admissible remainder bound: every unvisited
	// node except the last must be left through its cheapest arc.
	minOut := make([]int, n)
	for i := 0; i < n; i++ {
		minOut[i] = Inf
		for j := 0; j < n; j++ {
			if i != j && m[i][j] < minOut[i] {
				minOut[i] = m[i][j]
			}
		}
		if n == 1 {
			minOut[i] = 0
		}
	}
	var paths [][]int
	visited := make([]bool, n)
	cur := make([]int, 0, n)
	sc := newAPScratch(n)
	const nodeBudget = 500000
	nodes, escalated, escPruned := 0, 0, 0
	var recErr error
	var rec func(cost int)
	rec = func(cost int) {
		if recErr != nil || len(paths) >= limit || nodes > nodeBudget {
			return
		}
		if err := mt.Node(); err != nil {
			recErr = err
			return
		}
		nodes++
		if len(cur) == n {
			if cost == best {
				paths = append(paths, append([]int(nil), cur...))
			}
			return
		}
		last := -1
		if len(cur) > 0 {
			last = cur[len(cur)-1]
		}
		for v := 0; v < n; v++ {
			if visited[v] {
				continue
			}
			step := 0
			if last < 0 {
				if startCost != nil {
					step = startCost[v]
				}
			} else {
				step = m[last][v]
			}
			// Admissible bound: the remaining unvisited nodes (minus the
			// final one) must each be exited once.
			lb := 0
			remaining := 0
			for w := 0; w < n; w++ {
				if !visited[w] && w != v {
					remaining++
					lb += minOut[w]
				}
			}
			if remaining > 0 {
				// The path's final node is not exited: refund the largest
				// of the counted minimal exits... a simpler sound bound is
				// to drop one arbitrary exit; dropping the maximum keeps
				// admissibility.
				maxDrop := 0
				for w := 0; w < n; w++ {
					if !visited[w] && w != v && minOut[w] > maxDrop {
						maxDrop = minOut[w]
					}
				}
				lb -= maxDrop
			}
			if cost+step+lb <= best && remaining >= enumEscalateMinRemaining {
				// Rung one failed to prune: escalate to the assignment
				// bound over the remaining subproblem. Any admissible
				// bound leaves the emitted optimal-path set and its DFS
				// order untouched — a prefix of an optimal path always
				// satisfies cost+step+lb <= best — so only the node count
				// moves.
				escalated++
				if alb := enumAPBound(m, visited, v, sc); alb > lb {
					lb = alb
					if cost+step+lb > best {
						escPruned++
					}
				}
			}
			if cost+step+lb > best {
				continue
			}
			visited[v] = true
			cur = append(cur, v)
			rec(cost + step)
			cur = cur[:len(cur)-1]
			visited[v] = false
		}
	}
	rec(0)
	if run := obs.From(mt.Context()); run != nil {
		run.Counter("atsp.enum.nodes").Add(int64(nodes))
		run.Counter("atsp.enum.escalated").Add(int64(escalated))
		run.Counter("atsp.enum.escpruned").Add(int64(escPruned))
		run.Progress().AddNodes(int64(nodes))
		run.StartUnder("atsp/enumerate").
			SetInt("n", int64(n)).
			SetInt("nodes", int64(nodes)).
			SetInt("paths", int64(len(paths))).
			End()
	}
	if recErr != nil {
		return nil, 0, recErr
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("atsp: internal error: no path re-achieves the optimal cost %d", best)
	}
	return paths, best, nil
}

// enumEscalateMinRemaining is the smallest unvisited remainder for which
// the optimal-path enumeration escalates to the assignment bound (below
// it the cheap min-out bound is already near exact and the O(k³) solve
// pure overhead).
const enumEscalateMinRemaining = 3

// apScratch is the assignment rung's scratch, allocated once per
// enumeration and reused by every bound: rem lists the unvisited
// remainder, sub holds the bound's subproblem (rows re-sliced to its
// order) and ap solves it.
type apScratch struct {
	rem []int
	sub Matrix
	ap  apState
}

// newAPScratch sizes the scratch for the subproblems of an n-node
// enumeration, which have at most n rows.
func newAPScratch(n int) *apScratch {
	back := make([]int, n*n)
	sub := make(Matrix, n)
	for i := range sub {
		sub[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return &apScratch{rem: make([]int, n), sub: sub}
}

// enumAPBound is the enumeration's second rung: an admissible assignment
// bound on the cheapest completion of a partial path about to step onto
// v. Rows are {v} ∪ R (R = unvisited minus v), columns R plus an end
// column: v must exit into R, every node of R is entered exactly once,
// and exactly one row — the path's final node — takes the free end
// column. Every feasible suffix induces such an assignment, so the
// optimal assignment lower-bounds the suffix cost.
func enumAPBound(m Matrix, visited []bool, v int, sc *apScratch) int {
	rem := sc.rem
	k := 0
	for w := 0; w < len(m); w++ {
		if !visited[w] && w != v {
			rem[k] = w
			k++
		}
	}
	sub := sc.sub[:k+1]
	for i := range sub {
		sub[i] = sub[i][:k+1]
	}
	for j := 0; j < k; j++ {
		sub[0][j] = m[v][rem[j]]
	}
	sub[0][k] = Inf // v is not the final node: it must exit into R
	for i := 0; i < k; i++ {
		ri := rem[i]
		for j := 0; j < k; j++ {
			if i == j {
				sub[i+1][j] = Inf
			} else {
				sub[i+1][j] = m[ri][rem[j]]
			}
		}
		sub[i+1][k] = 0 // the path may end at any remaining node, free
	}
	return assignmentCost(sub, &sc.ap)
}

// assignmentCost solves the linear assignment problem on m with the
// caller's state s, reset to m's order, and returns only the optimal cost.
func assignmentCost(m Matrix, s *apState) int {
	s.reset(len(m))
	for i := 1; i <= s.n; i++ {
		if s.row[i] == 0 {
			s.augment(m, i)
		}
	}
	cost := 0
	for i := 1; i <= s.n; i++ {
		cost += m[i-1][s.row[i]-1]
	}
	return cost
}
