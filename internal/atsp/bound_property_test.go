package atsp

import (
	"math/rand"
	"reflect"
	"testing"
)

// collectBounds runs a branch-and-bound solve with bbBoundHook installed and
// returns every (constrained matrix, assignment bound) pair the search
// computed, including the root. The hook clones the matrix: the solver
// mutates node matrices after bounding them.
func collectBounds(t *testing.T, m Matrix, opt SolveOptions) (tour []int, cost int, nodes []struct {
	w  Matrix
	lb int
}) {
	t.Helper()
	bbBoundHook = func(w Matrix, lb int) {
		nodes = append(nodes, struct {
			w  Matrix
			lb int
		}{w.Clone(), lb})
	}
	defer func() { bbBoundHook = nil }()
	tour, cost, err := BranchBoundOpt(nil, m, opt)
	if err != nil {
		t.Fatalf("BranchBoundOpt: %v", err)
	}
	return tour, cost, nodes
}

// TestAPBoundAdmissible is the property test behind the whole branch and
// bound: at every search node the assignment relaxation must lower-bound
// the optimal cyclic tour of that node's constrained matrix. An
// inadmissible bound would prune optimal leaves and break both exactness
// and the warm/cold determinism contract.
func TestAPBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 16; iter++ {
		n := 4 + rng.Intn(6) // 4..9: bruteForce stays tractable per node
		m := randomMatrix(rng, n, 8)
		opt := bruteForce(m)
		_, cost, nodes := collectBounds(t, m, SolveOptions{})
		if cost != opt {
			t.Fatalf("n=%d: cost %d, brute force %d", n, cost, opt)
		}
		if len(nodes) == 0 {
			t.Fatalf("n=%d: hook observed no nodes", n)
		}
		for _, nd := range nodes {
			if nd.lb >= Inf {
				continue // infeasible subproblem: pruned, bound vacuous
			}
			if bf := bruteForce(nd.w); nd.lb > bf {
				t.Errorf("n=%d: inadmissible bound %d > optimum %d for\n%v", n, nd.lb, bf, nd.w)
			}
		}
	}
}

// TestMultiOptimaTieBreakDeterministic seeds tie-heavy instances (tiny cost
// range, so many co-optimal tours) and demands the exact same canonical
// tour from cold and warm solves, whichever feasible tour primes the warm
// one. Without the strict-prune + lex-min offer rule, a warm incumbent
// would prune co-optimal leaves the cold search reaches, and the two could
// return different (equally optimal) tours.
func TestMultiOptimaTieBreakDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 24; iter++ {
		n := 5 + rng.Intn(5)         // 5..9
		m := randomMatrix(rng, n, 3) // costs in {0,1,2}: heavy tie pressure
		want, wantCost, err := BranchBoundOpt(nil, m, SolveOptions{})
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
		if bf := bruteForce(m); wantCost != bf {
			t.Fatalf("n=%d: cold cost %d, brute force %d", n, wantCost, bf)
		}
		patched, _ := Patch(m)
		reversed := make([]int, n) // feasible, and on this cost range often co-optimal
		for i := range reversed {
			reversed[i] = want[(n-i)%n]
		}
		for _, warm := range [][]int{patched, want, reversed} {
			got, gotCost, err := BranchBoundOpt(nil, m, SolveOptions{WarmTour: warm})
			if err != nil {
				t.Fatalf("warm %v: %v", warm, err)
			}
			if gotCost != wantCost || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d warm %v: tour %v cost %d, cold returned %v cost %d",
					n, warm, got, gotCost, want, wantCost)
			}
		}
	}
}

// FuzzWarmStartEquivalence feeds the solver randomized instances plus a
// single-arc mutation of each, and asserts the determinism contract end to
// end: a warm-started solve (primed with anything from a garbage permutation
// to the previous instance's exact tour) returns the byte-identical tour and
// cost of a cold solve, and the cost matches the independent Held–Karp
// dynamic program.
func FuzzWarmStartEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3))
	f.Add(int64(42), uint8(0), uint8(250))
	f.Add(int64(-9), uint8(9), uint8(17))
	f.Add(int64(20260808), uint8(4), uint8(128))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mutRaw uint8) {
		n := 3 + int(nRaw%7) // 3..9
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, n, 2+int(mutRaw%14))
		cold, coldCost, err := BranchBoundOpt(nil, m, SolveOptions{})
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
		if _, hk, err := HeldKarp(m); err != nil || hk != coldCost {
			t.Fatalf("Held-Karp cost %d (err %v), branch and bound %d", hk, err, coldCost)
		}
		rot := make([]int, n) // a feasible but usually far-from-optimal tour
		for i := range rot {
			rot[i] = (i + int(mutRaw)) % n
		}
		patched, _ := Patch(m)
		for _, wt := range [][]int{rot, patched, cold} {
			got, gotCost, err := BranchBoundOpt(nil, m, SolveOptions{WarmTour: wt})
			if err != nil {
				t.Fatalf("warm solve: %v", err)
			}
			if gotCost != coldCost || !reflect.DeepEqual(got, cold) {
				t.Fatalf("warm %v: tour %v cost %d, cold %v cost %d",
					wt, got, gotCost, cold, coldCost)
			}
		}
		// The incremental scenario the warm sweep actually runs: mutate one
		// arc, warm-start the new instance with the old optimal tour.
		m2 := m.Clone()
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			m2[i][j] = int(mutRaw)
		}
		cold2, cold2Cost, err := BranchBoundOpt(nil, m2, SolveOptions{})
		if err != nil {
			t.Fatalf("mutated cold solve: %v", err)
		}
		warm2, warm2Cost, err := BranchBoundOpt(nil, m2, SolveOptions{WarmTour: cold})
		if err != nil {
			t.Fatalf("mutated warm solve: %v", err)
		}
		if warm2Cost != cold2Cost || !reflect.DeepEqual(warm2, cold2) {
			t.Fatalf("mutated: warm tour %v cost %d, cold %v cost %d",
				warm2, warm2Cost, cold2, cold2Cost)
		}
	})
}

// TestCompletePath checks the warm-path completion helper: the result is
// always a valid open path, keeps a sane partial prefix, and tolerates
// garbage (out-of-range, duplicate) partials.
func TestCompletePath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.Intn(8)
		m := randomMatrix(rng, n, 10)
		starts := make([]int, n)
		for i := range starts {
			starts[i] = rng.Intn(3)
		}
		partials := [][]int{
			nil,
			{0},
			{n - 1, 0},
			{rng.Intn(n), rng.Intn(n), n + 3, -1}, // garbage tolerated
		}
		for _, partial := range partials {
			path := CompletePath(m, starts, partial)
			if len(path) != n {
				t.Fatalf("n=%d partial=%v: path %v misses nodes", n, partial, path)
			}
			seen := make([]bool, n)
			for _, v := range path {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("n=%d partial=%v: invalid path %v", n, partial, path)
				}
				seen[v] = true
			}
		}
	}
}
