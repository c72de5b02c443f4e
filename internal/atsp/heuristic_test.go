package atsp

import (
	"math/rand"
	"slices"
	"testing"
)

// orOptReference is OrOpt as it was before move deltas: every candidate
// tour is built in full and priced with TourCost. It is the oracle the
// delta-priced OrOpt must match move for move.
func orOptReference(m Matrix, tour []int) ([]int, int) {
	n := len(tour)
	cur := append([]int(nil), tour...)
	cost := m.TourCost(cur)
	seg := make([]int, 0, 3)
	rest := make([]int, 0, n)
	cand := make([]int, n)
	improved := true
	for improved {
		improved = false
		for segLen := 1; segLen <= 3 && segLen < n; segLen++ {
			for i := 0; i+segLen <= n; i++ {
				seg = append(seg[:0], cur[i:i+segLen]...)
				rest = append(append(rest[:0], cur[:i]...), cur[i+segLen:]...)
				for k := 0; k <= len(rest); k++ {
					copy(cand, rest[:k])
					copy(cand[k:], seg)
					copy(cand[k+segLen:], rest[k:])
					if c := m.TourCost(cand); c < cost {
						cur, cand = cand, cur
						cost = c
						improved = true
					}
				}
			}
		}
	}
	return cur, cost
}

// sparseMatrix is a random n×n matrix with costs below maxCost and about
// one off-diagonal arc in infEvery set to Inf.
func sparseMatrix(rng *rand.Rand, n, maxCost, infEvery int) Matrix {
	m := randomMatrix(rng, n, maxCost)
	for i := range m {
		for j := range m[i] {
			if i != j && rng.Intn(infEvery) == 0 {
				m[i][j] = Inf
			}
		}
	}
	return m
}

// startTours lists the tours OrOpt is checked from: a random
// permutation, every nearest-neighbour tour and the greedy-edge tour.
func startTours(rng *rand.Rand, m Matrix) [][]int {
	n := len(m)
	starts := [][]int{rng.Perm(n)}
	for s := 0; s < n; s++ {
		t, _ := NearestNeighbor(m, s)
		starts = append(starts, t)
	}
	t, _ := GreedyEdge(m)
	return append(starts, t)
}

// checkOrOpt fails t unless OrOpt returns exactly the reference's tour
// and cost from start, and that cost is the tour's.
func checkOrOpt(t *testing.T, m Matrix, start []int) {
	t.Helper()
	want, wantCost := orOptReference(m, start)
	got, gotCost := OrOpt(m, start)
	if !slices.Equal(got, want) || gotCost != wantCost {
		t.Fatalf("OrOpt from %v: tour %v cost %d, reference %v cost %d\n%v",
			start, got, gotCost, want, wantCost, m)
	}
	if c := m.TourCost(got); c != gotCost {
		t.Fatalf("OrOpt from %v: reported cost %d, tour costs %d", start, gotCost, c)
	}
}

// TestOrOptMatchesReference checks the delta-priced OrOpt against the
// full-repricing reference on 2,016 seeded matrices with Inf arcs: every
// accepted move, the final tour and its cost must agree. The first 240
// cycle through sizes 1..24, the rest through 1..12, where the
// reference's n³ passes stay cheap.
func TestOrOptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 2016; trial++ {
		n := 1 + trial%24
		if trial >= 240 {
			n = 1 + trial%12
		}
		m := sparseMatrix(rng, n, 1+rng.Intn(40), 12)
		for _, start := range startTours(rng, m) {
			checkOrOpt(t, m, start)
		}
	}
}

// rootBound is the branch and bound's root assignment bound of m.
func rootBound(m Matrix) int {
	work := m.Clone()
	for i := range work {
		work[i][i] = Inf
	}
	_, lb := newAPState(len(m)).solve(work)
	return lb
}

// TestHeuristicStopsAtRootBound checks that stopping the heuristic
// incumbent at the root assignment bound returns the full scan's tour
// and cost, and that the stop fires on some instances.
func TestHeuristicStopsAtRootBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	met := 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + trial%15
		m := sparseMatrix(rng, n, 1+rng.Intn(6), 12)
		lb := rootBound(m)
		want, wantCost := bestHeuristic(m, -1)
		got, gotCost := bestHeuristic(m, lb)
		if !slices.Equal(got, want) || gotCost != wantCost {
			t.Fatalf("n=%d lb=%d: stopped scan %v cost %d, full scan %v cost %d\n%v",
				n, lb, got, gotCost, want, wantCost, m)
		}
		if gotCost == lb {
			met++
		}
	}
	if met == 0 {
		t.Fatal("no heuristic tour met the root bound: the early stop was never exercised")
	}
}

// FuzzOrOptDelta builds a matrix from the fuzz bytes (byte 0 sets the
// size, each later byte one arc, 0xFF an Inf arc) and checks OrOpt
// against the reference from every start tour.
func FuzzOrOptDelta(f *testing.F) {
	f.Add(int64(1), []byte{5, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3})
	f.Add(int64(2), []byte{1})
	f.Add(int64(3), []byte{2, 7, 0xFF})
	f.Add(int64(4), []byte{3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(int64(20261017), []byte{23, 0, 0, 1, 0, 2, 0xFF, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		m := make(Matrix, n)
		for i := range m {
			m[i] = make([]int, n)
			for j := range m[i] {
				if i == j {
					continue
				}
				k := 1 + i*n + j
				if k >= len(data) {
					continue
				}
				if data[k] == 0xFF {
					m[i][j] = Inf
				} else {
					m[i][j] = int(data[k])
				}
			}
		}
		for _, start := range startTours(rand.New(rand.NewSource(seed)), m) {
			checkOrOpt(t, m, start)
		}
	})
}
