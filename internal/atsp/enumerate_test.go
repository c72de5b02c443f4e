package atsp

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestEnumAPBoundAdmissible checks the enumeration's assignment rung
// against brute force: for random partial-path states, the assignment bound never
// exceeds the cheapest completion of the path through v. One scratch
// serves every instance, as one serves every bound of an enumeration.
func TestEnumAPBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := newAPScratch(8)
	for iter := 0; iter < 120; iter++ {
		n := 4 + rng.Intn(4) // 4..7
		m := randomMatrix(rng, n, 10)
		visited := make([]bool, n)
		k := rng.Intn(n - 2) // leave at least two unvisited: v plus one more
		for c := 0; c < k; c++ {
			visited[rng.Intn(n)] = true
		}
		v := -1
		for w := 0; w < n; w++ {
			if !visited[w] {
				v = w
				break
			}
		}
		// Brute-force cheapest suffix: v first, then every order of the rest.
		var unv []int
		for w := 0; w < n; w++ {
			if !visited[w] && w != v {
				unv = append(unv, w)
			}
		}
		if len(unv) == 0 {
			continue
		}
		best := Inf
		perm := append([]int(nil), unv...)
		var rec func(last, k, cost int)
		rec = func(last, k, cost int) {
			if k == len(perm) {
				if cost < best {
					best = cost
				}
				return
			}
			for i := k; i < len(perm); i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(perm[k], k+1, cost+m[last][perm[k]])
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(v, 0, 0)
		if lb := enumAPBound(m, visited, v, sc); lb > best {
			t.Fatalf("n=%d visited=%v v=%d: bound %d exceeds cheapest suffix %d for\n%v",
				n, visited, v, lb, best, m)
		}
	}
}

// TestOptimalPathsMatchBruteForce is the enumeration's byte-identity
// regression: the emitted optimal-path list — contents AND order — must
// equal the lexicographic brute-force enumeration of cost-optimal paths,
// whatever bounds pruned the search tree.
func TestOptimalPathsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20260810))
	for iter := 0; iter < 24; iter++ {
		n := 4 + rng.Intn(4) // 4..7
		m := randomMatrix(rng, n, 4)
		starts := make([]int, n)
		for i := range starts {
			starts[i] = rng.Intn(3)
		}
		// Brute force in lexicographic DFS order, the order rec emits in.
		var want [][]int
		best := Inf
		cur := make([]int, 0, n)
		used := make([]bool, n)
		var rec func(cost int)
		rec = func(cost int) {
			if len(cur) == n {
				if cost < best {
					best = cost
					want = want[:0]
				}
				if cost == best {
					want = append(want, append([]int(nil), cur...))
				}
				return
			}
			for v := 0; v < n; v++ {
				if used[v] {
					continue
				}
				step := starts[v]
				if len(cur) > 0 {
					step = m[cur[len(cur)-1]][v]
				}
				used[v] = true
				cur = append(cur, v)
				rec(cost + step)
				cur = cur[:len(cur)-1]
				used[v] = false
			}
		}
		rec(0)
		got, cost, err := OptimalPaths(m, starts, len(want)+8)
		if err != nil {
			t.Fatalf("OptimalPaths: %v", err)
		}
		if cost != best {
			t.Fatalf("n=%d: optimal cost %d, brute force %d", n, cost, best)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: emitted paths diverge from brute force\ngot:  %v\nwant: %v", n, got, want)
		}
	}
}
