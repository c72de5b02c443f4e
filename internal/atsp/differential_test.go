package atsp

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"marchgen/internal/budget"
)

// exhaustiveOpenPath enumerates every permutation and returns the optimal
// open-path cost under the start-cost convention of Path: the first node
// pays startCost, every hop pays the arc, the last node is not exited.
func exhaustiveOpenPath(m Matrix, startCost []int) int {
	n := len(m)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := Inf * 4
	var rec func(k, cost int)
	rec = func(k, cost int) {
		if cost >= best {
			return
		}
		if k == n {
			best = cost
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			step := 0
			if k == 0 {
				if startCost != nil {
					step = startCost[perm[0]]
				}
			} else {
				step = m[perm[k-1]][perm[k]]
			}
			rec(k+1, cost+step)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0, 0)
	return best
}

// TestDifferentialTourSolvers cross-checks three independent solvers on
// random asymmetric instances up to n = 10: exhaustive enumeration,
// Held–Karp and the branch and bound must all report the same optimal
// tour cost, and every returned tour must be a valid permutation
// achieving its reported cost.
func TestDifferentialTourSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 10; n++ {
		trials := 6
		if n >= 9 {
			trials = 2 // exhaustive enumeration is (n-1)! per trial
		}
		for trial := 0; trial < trials; trial++ {
			m := randomMatrix(rng, n, 50)
			want := bruteForce(m)
			check := func(name string, tour []int, cost int, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("n=%d trial=%d %s: %v", n, trial, name, err)
				}
				if cost != want {
					t.Fatalf("n=%d trial=%d %s: cost %d, exhaustive says %d", n, trial, name, cost, want)
				}
				if !validTour(n, tour) {
					t.Fatalf("n=%d trial=%d %s: invalid tour %v", n, trial, name, tour)
				}
				if got := m.TourCost(tour); got != cost {
					t.Fatalf("n=%d trial=%d %s: tour %v costs %d, reported %d", n, trial, name, tour, got, cost)
				}
			}
			hkTour, hkCost, hkErr := HeldKarp(m)
			check("held-karp", hkTour, hkCost, hkErr)
			bbTour, bbCost, bbErr := BranchBound(m)
			check("branch-bound", bbTour, bbCost, bbErr)
		}
	}
}

// TestDifferentialOpenPath cross-checks PathOpt (the open-path reduction
// the generation pipeline actually runs) against exhaustive open-path
// enumeration, with and without start costs, on both exact regimes: the
// small-instance Held–Karp dispatch and the branch and bound PreferBB
// forces.
func TestDifferentialOpenPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 2; n <= 8; n++ {
		for trial := 0; trial < 5; trial++ {
			m := randomMatrix(rng, n, 40)
			var starts []int
			if trial%2 == 0 {
				starts = make([]int, n)
				for i := range starts {
					starts[i] = rng.Intn(10)
				}
			}
			want := exhaustiveOpenPath(m, starts)
			for _, preferBB := range []bool{false, true} {
				path, cost, err := PathOpt(nil, m, starts, true, PathOptions{PreferBB: preferBB})
				if err != nil {
					t.Fatalf("n=%d trial=%d preferBB=%v: %v", n, trial, preferBB, err)
				}
				if cost != want {
					t.Fatalf("n=%d trial=%d preferBB=%v: cost %d, exhaustive says %d", n, trial, preferBB, cost, want)
				}
				if !validTour(n, path) {
					t.Fatalf("n=%d trial=%d preferBB=%v: invalid path %v", n, trial, preferBB, path)
				}
			}
		}
	}
}

// twoCycleMatrix builds an instance the assignment relaxation cannot solve
// at the root: each half has one cheap Hamiltonian cycle, so the optimal
// assignment is two disjoint subtours and the branch-and-bound is forced
// to branch. This makes budget/cancellation tests deterministic — a random
// instance can terminate at the root with a single node charge.
func twoCycleMatrix(half int) Matrix {
	n := 2 * half
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = 60
			}
		}
	}
	for i := 0; i < half; i++ {
		m[i][(i+1)%half] = 1
		m[half+i][half+(i+1)%half] = 1
	}
	return m
}

// meterSolvers is the table the meter-abort tests run: both exact entry
// points on the two-cycle instance, each with the ATSP node budget it
// outruns. The instance guarantees the branch and bound branches at the
// root, so a one-node budget runs out on its first child. The
// optimal-path enumeration gets exactly the nodes its establishing solve
// needs, so the enumeration itself runs out.
func meterSolvers(t *testing.T) []meterSolver {
	t.Helper()
	m := twoCycleMatrix(6)
	probe := budget.NewMeter(context.Background(), budget.Budget{ATSPNodes: 1 << 30})
	if _, _, err := PathOpt(probe, m, nil, true, PathOptions{PreferBB: true, CostOnly: true}); err != nil {
		t.Fatalf("establishing solve: %v", err)
	}
	return []meterSolver{
		{"branch-bound", 1, func(mt *budget.Meter) error {
			_, _, err := BranchBoundOpt(mt, m, SolveOptions{})
			return err
		}},
		{"optimal-paths", probe.Nodes(), func(mt *budget.Meter) error {
			_, _, err := OptimalPathsOpt(mt, m, nil, 8, PathOptions{PreferBB: true})
			return err
		}},
	}
}

type meterSolver struct {
	name  string
	nodes int // ATSP node budget the solve outruns
	solve func(mt *budget.Meter) error
}

// meterSharers is how many concurrent solves share one meter, as the
// pooled selection sweep's producers share the run's meter.
const meterSharers = 4

// solveShared runs sv on meterSharers goroutines sharing mt and returns
// each solve's error.
func solveShared(sv meterSolver, mt *budget.Meter) []error {
	errs := make([]error, meterSharers)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = sv.solve(mt)
		}()
	}
	wg.Wait()
	return errs
}

// TestParallelBudgetExhaustion checks that the meter's node budget aborts
// both exact entry points with ErrBudgetExhausted: one solve on its own
// meter is charged exactly one node past the budget, and concurrent solves
// sharing one meter all abort, since none can complete inside the shared
// count. Each sharer stops at its first refused node, so the shared count
// overshoots by at most one node per sharer.
func TestParallelBudgetExhaustion(t *testing.T) {
	for _, sv := range meterSolvers(t) {
		mt := budget.NewMeter(context.Background(), budget.Budget{ATSPNodes: sv.nodes})
		if err := sv.solve(mt); !errors.Is(err, budget.ErrBudgetExhausted) {
			t.Errorf("%s, %d-node budget: err = %v, want ErrBudgetExhausted", sv.name, sv.nodes, err)
		}
		if got := mt.Nodes(); got != sv.nodes+1 {
			t.Errorf("%s, %d-node budget: %d nodes charged, want %d", sv.name, sv.nodes, got, sv.nodes+1)
		}

		mt = budget.NewMeter(context.Background(), budget.Budget{ATSPNodes: sv.nodes})
		for g, err := range solveShared(sv, mt) {
			if !errors.Is(err, budget.ErrBudgetExhausted) {
				t.Errorf("%s, shared %d-node budget, solve %d: err = %v, want ErrBudgetExhausted", sv.name, sv.nodes, g, err)
			}
		}
		if got := mt.Nodes(); got <= sv.nodes || got > sv.nodes+meterSharers {
			t.Errorf("%s, shared %d-node budget: %d nodes charged, want %d..%d", sv.name, sv.nodes, got, sv.nodes+1, sv.nodes+meterSharers)
		}
	}
}

// TestParallelCancellation checks that a hard cancellation latched on the
// meter, as a pipeline stage boundary would latch it via CheckNow, aborts
// every concurrent solve sharing that meter with ErrCanceled, on both
// exact entry points.
func TestParallelCancellation(t *testing.T) {
	for _, sv := range meterSolvers(t) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		mt := budget.NewMeter(ctx, budget.Budget{})
		if err := mt.CheckNow(); !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("CheckNow = %v, want ErrCanceled", err)
		}
		for g, err := range solveShared(sv, mt) {
			if !errors.Is(err, budget.ErrCanceled) {
				t.Errorf("%s, canceled, solve %d: err = %v, want ErrCanceled", sv.name, g, err)
			}
		}
	}
}
