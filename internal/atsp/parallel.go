package atsp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// progressFlush is how many locally counted node expansions a worker
// accumulates before flushing them into the shared live-progress cell —
// large enough to keep the shared atomic off the per-node path, small
// enough that the streamed node rate tracks a long solve closely.
const progressFlush = 1024

// unset is the incumbent sentinel before any feasible tour is known. It is
// far above any reachable tour cost yet small enough that comparisons
// against lower bounds (themselves capped near Inf) cannot overflow.
const unset = int64(Inf) * 4

// BranchBoundWorkers is BranchBoundMeter explored by `workers` goroutines.
// Each worker owns a double-ended queue of open subproblems: it pushes and
// pops at the tail (depth-first, keeping the memory footprint small) while
// idle workers steal from the head (the shallowest, largest subtrees —
// the classic work-stealing discipline). The incumbent bound is a shared
// atomic, so an improvement found by any worker immediately prunes every
// other worker's subtree; the incumbent tour itself is updated under a
// mutex with a deterministic tie-break (lexicographically smallest
// canonical tour among equal-cost optima). Because subtrees are pruned
// only on a *strictly* worse bound, the set of optimal tours the search
// reaches is schedule-independent and the returned tour — not just its
// cost — is identical at any worker count.
//
// Budget semantics match the sequential solver: every expanded subproblem
// charges mt.Node(), so hard cancellation and ATSP node-budget exhaustion
// abort the whole solve with the same typed errors. workers <= 1 runs the
// same engine on the calling goroutine.
func BranchBoundWorkers(mt *budget.Meter, m Matrix, workers int) ([]int, int, error) {
	return BranchBoundOpt(mt, m, SolveOptions{Workers: workers})
}

// bbShared is the state the branch-and-bound workers share.
type bbShared struct {
	orig   Matrix
	mt     *budget.Meter
	queues []bbQueue

	// bound is the incumbent tour cost, read lock-free in the hot pruning
	// path; best is the incumbent tour, guarded by mu.
	bound atomic.Int64
	mu    sync.Mutex
	best  []int

	// prog is the run's live-progress surface (nil-safe) and rootLB the
	// root relaxation bound: offer publishes every incumbent improvement
	// against it, and workers flush expanded-node batches into it.
	prog   *obs.Progress
	rootLB int64

	// outstanding counts open subproblems not yet fully expanded; the
	// search is done when it reaches zero.
	outstanding atomic.Int64
	// stop latches an abort (cancellation, budget exhaustion).
	stop  atomic.Bool
	errMu sync.Mutex
	err   error

	// expanded/pruned/steals aggregate the workers' search effort for
	// the observability metrics; each worker accumulates locally and
	// flushes once on exit, so the hot loop stays free of shared writes.
	expanded atomic.Int64
	pruned   atomic.Int64
	steals   atomic.Int64
}

// bbQueue is one worker's deque of open subproblems: the owner pushes and
// pops at the tail, thieves steal at the head.
type bbQueue struct {
	mu    sync.Mutex
	nodes []bbNode
}

func (q *bbQueue) push(nd bbNode) {
	q.mu.Lock()
	q.nodes = append(q.nodes, nd)
	q.mu.Unlock()
}

func (q *bbQueue) pop() (bbNode, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.nodes) == 0 {
		return bbNode{}, false
	}
	nd := q.nodes[len(q.nodes)-1]
	q.nodes = q.nodes[:len(q.nodes)-1]
	return nd, true
}

func (q *bbQueue) steal() (bbNode, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.nodes) == 0 {
		return bbNode{}, false
	}
	nd := q.nodes[0]
	q.nodes = q.nodes[1:]
	return nd, true
}

func (s *bbShared) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.stop.Store(true)
}

func (s *bbShared) failure() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// offer records a feasible tour, keeping the cheapest — and among
// equal-cost optima the lexicographically smallest canonical tour, so the
// final incumbent does not depend on which worker found it first.
func (s *bbShared) offer(cycle []int) {
	cost := int64(s.orig.TourCost(cycle))
	if cost > s.bound.Load() {
		return
	}
	tour := canonical(cycle)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.bound.Load()
	if cost < cur || (cost == cur && (s.best == nil || lexLess(tour, s.best))) {
		s.best = tour
		s.bound.Store(cost)
		s.prog.Search(cost, s.rootLB)
	}
}

// worker drains its own deque depth-first and steals from its peers when
// empty, exiting when every open subproblem has been expanded. Search
// effort is counted in locals and flushed to the shared totals once.
func (s *bbShared) worker(id int) {
	var expanded, pruned, steals, flushed int64
	defer func() {
		s.expanded.Add(expanded)
		s.pruned.Add(pruned)
		s.steals.Add(steals)
		s.prog.AddNodes(expanded - flushed)
	}()
	for {
		if s.stop.Load() {
			return
		}
		// Batch the live node count out of the hot loop: one shared
		// atomic add per progressFlush expansions, not one per node.
		if expanded-flushed >= progressFlush {
			s.prog.AddNodes(expanded - flushed)
			flushed = expanded
		}
		nd, ok := s.queues[id].pop()
		if !ok {
			for k := 1; k < len(s.queues) && !ok; k++ {
				nd, ok = s.queues[(id+k)%len(s.queues)].steal()
			}
			if ok {
				steals++
			}
		}
		if !ok {
			if s.outstanding.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		s.expand(id, nd, &expanded, &pruned)
		s.outstanding.Add(-1)
	}
}

// expand processes one subproblem: bound it by re-augmenting the inherited
// assignment state (only the rows the branching constraints dirtied),
// record it when the assignment is a feasible tour, otherwise branch on
// the shortest subtour exactly as the CDT scheme prescribes. Pruning is
// strict (bound must *exceed* the incumbent cost): a subproblem whose
// bound ties the incumbent may still hold an equal-cost tour that wins the
// lexicographic tie-break, and exploring all of them is what makes the
// returned tour schedule-independent.
func (s *bbShared) expand(id int, nd bbNode, expanded, pruned *int64) {
	if err := s.mt.Node(); err != nil {
		s.fail(err)
		nd.release()
		return
	}
	*expanded++
	rowToCol, lb := nd.ap.solve(nd.w)
	if hook := bbBoundHook; hook != nil {
		hook(nd.w, lb)
	}
	if int64(lb) > s.bound.Load() || lb >= Inf {
		*pruned++
		nd.release()
		return
	}
	cycle := shortestSubtour(rowToCol)
	if len(cycle) == len(rowToCol) {
		s.offer(cycle)
		nd.release()
		return
	}
	for _, child := range bbBranch(nd, rowToCol, cycle) {
		s.outstanding.Add(1)
		s.queues[id].push(child)
	}
	nd.release()
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

// SolveExactWorkers dispatches like SolveExact with a worker count for the
// branch-and-bound regime (Held–Karp is a sequential dynamic program and
// already fast for every instance it handles).
func SolveExactWorkers(mt *budget.Meter, m Matrix, workers int) ([]int, int, error) {
	return SolveExactOpt(mt, m, SolveOptions{Workers: workers})
}
