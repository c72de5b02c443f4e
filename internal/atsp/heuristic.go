package atsp

import "sort"

// NearestNeighbor builds a tour greedily from the given start node.
func NearestNeighbor(m Matrix, start int) ([]int, int) {
	n := len(m)
	visited := make([]bool, n)
	tour := make([]int, 0, n)
	cur := start
	visited[cur] = true
	tour = append(tour, cur)
	for len(tour) < n {
		next, bestC := -1, 0
		for j := 0; j < n; j++ {
			if visited[j] || j == cur {
				continue
			}
			if next < 0 || m[cur][j] < bestC {
				next, bestC = j, m[cur][j]
			}
		}
		visited[next] = true
		tour = append(tour, next)
		cur = next
	}
	return tour, m.TourCost(tour)
}

// GreedyEdge builds a tour by repeatedly committing the globally cheapest
// arc that keeps out-degrees, in-degrees and acyclicity valid, closing the
// Hamiltonian cycle with the last arc.
func GreedyEdge(m Matrix) ([]int, int) {
	n := len(m)
	type arc struct{ from, to, cost int }
	arcs := make([]arc, 0, n*n-n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				arcs = append(arcs, arc{i, j, m[i][j]})
			}
		}
	}
	sort.Slice(arcs, func(a, b int) bool { return arcs[a].cost < arcs[b].cost })
	next := make([]int, n)
	prev := make([]int, n)
	for i := range next {
		next[i], prev[i] = -1, -1
	}
	// find chain end starting from a node
	chainEnd := func(v int) int {
		for next[v] >= 0 {
			v = next[v]
		}
		return v
	}
	committed := 0
	for _, a := range arcs {
		if committed == n-1 {
			break
		}
		if next[a.from] >= 0 || prev[a.to] >= 0 {
			continue
		}
		if chainEnd(a.to) == a.from {
			continue // would close a short cycle
		}
		next[a.from] = a.to
		prev[a.to] = a.from
		committed++
	}
	// Close the cycle: exactly one node without successor remains.
	tour := make([]int, 0, n)
	start := 0
	for v := 0; v < n; v++ {
		if prev[v] < 0 {
			start = v
			break
		}
	}
	for v := start; len(tour) < n; v = next[v] {
		tour = append(tour, v)
		if next[v] < 0 {
			break
		}
	}
	if len(tour) != n {
		// Fall back defensively; should not happen.
		return NearestNeighbor(m, 0)
	}
	return tour, m.TourCost(tour)
}

// OrOpt improves a tour by relocating segments of length 1..3 to every
// other position, a direction-preserving local search suited to asymmetric
// instances (unlike 2-opt, it never reverses a segment). It repeats until
// no move improves the cost.
//
// Each move is priced in constant time from the arcs it changes, not by
// re-summing the tour. Cutting segment s0..sL from between p and q
// leaves a cycle rest of cost base = cost − m[p][s0] − m[sL][q] +
// m[p][q] (the segment's inner arcs stay in base); inserting it between
// a and b then costs base − m[a][b] + m[a][s0] + m[sL][b]. Integer
// arithmetic makes the delta exact, Inf arcs included, and when rest is
// a single node a the m[a][a] terms cancel. Every insertion point of one
// cut is priced against the tour as it was when that segment was cut,
// and only an accepted move is built: cand, assembled in place, swaps
// places with cur.
func OrOpt(m Matrix, tour []int) ([]int, int) {
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
			// Segment occupies positions i..i+segLen-1; try reinserting it
			// at every position of the remaining tour.
			for i := 0; i+segLen <= n; i++ {
				seg = append(seg[:0], cur[i:i+segLen]...)
				rest = append(append(rest[:0], cur[:i]...), cur[i+segLen:]...)
				s0, sL := seg[0], seg[segLen-1]
				p, q := cur[(i+n-1)%n], cur[(i+segLen)%n]
				base := cost - m[p][s0] - m[sL][q] + m[p][q]
				r := len(rest)
				for k := 0; k <= r; k++ {
					a, b := rest[(k+r-1)%r], rest[k%r]
					if c := base - m[a][b] + m[a][s0] + m[sL][b]; c < cost {
						copy(cand, rest[:k])
						copy(cand[k:], seg)
						copy(cand[k+segLen:], rest[k:])
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

// bestHeuristic returns the best tour among nearest-neighbour from every
// start and greedy-edge, each polished with or-opt, in that order; ties
// keep the earlier tour. It returns as soon as the best polished tour
// costs at most floor: when floor is a lower bound on every tour's cost,
// no later tour can be strictly cheaper, so the result is the full
// scan's. A negative floor scans every construction.
func bestHeuristic(m Matrix, floor int) ([]int, int) {
	n := len(m)
	var best []int
	bestCost := 0
	consider := func(t []int, c int) bool {
		t, c = OrOpt(m, t)
		if best == nil || c < bestCost {
			best, bestCost = t, c
		}
		return bestCost <= floor
	}
	for s := 0; s < n; s++ {
		if consider(NearestNeighbor(m, s)) {
			return canonical(best), bestCost
		}
	}
	consider(GreedyEdge(m))
	return canonical(best), bestCost
}
