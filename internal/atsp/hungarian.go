package atsp

// apInf is the internal sentinel of the shortest-augmenting-path search,
// far above any real reduced cost (Inf-walled arcs included).
const apInf = int(1) << 60

// apState is a warm-startable assignment-problem solver: the row/column
// potentials and the partial matching of a Jonker–Volgenant style
// shortest-augmenting-path Hungarian algorithm. A branch-and-bound node
// clones its parent's state, unassigns only the rows whose matched arc the
// branching constraint destroyed, and re-augments those rows against the
// child matrix — O(dirty·n²) instead of a fresh O(n³) solve. Correctness
// rests on two invariants that survive both operations: branching only
// *increases* arc costs (to Inf), which preserves dual feasibility of the
// potentials, and unassigning a row keeps every remaining matched arc
// tight.
//
// All arrays are 1-based like the classic formulation; index 0 is the
// virtual source column of the augmenting search.
type apState struct {
	n   int
	u   []int // row potentials
	v   []int // column potentials
	p   []int // p[col] = row matched to col (0 = none)
	row []int // row[r] = col matched to row r (0 = none)

	// Augmenting-search scratch, reused across augment calls (and across
	// resets of the whole state): holds no state between calls.
	way  []int
	minv []int
	used []bool
}

// newAPState returns an empty state for an n×n instance.
func newAPState(n int) *apState {
	s := &apState{}
	s.reset(n)
	return s
}

// reset sizes the state for an n×n instance and clears the matching and
// potentials (the augmenting-search scratch is sized lazily by augment).
func (s *apState) reset(n int) {
	s.n = n
	s.u = resizeInts(s.u, n+1)
	s.v = resizeInts(s.v, n+1)
	s.p = resizeInts(s.p, n+1)
	s.row = resizeInts(s.row, n+1)
	for i := 0; i <= n; i++ {
		s.u[i], s.v[i], s.p[i], s.row[i] = 0, 0, 0, 0
	}
}

// resizeInts returns a slice of length n, reusing b's backing array when
// it is large enough.
func resizeInts(b []int, n int) []int {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int, n)
}

// clone returns a deep copy of the state (scratch excluded — it holds no
// state between augmentations).
func (s *apState) clone() *apState {
	return &apState{
		n:   s.n,
		u:   append([]int(nil), s.u...),
		v:   append([]int(nil), s.v...),
		p:   append([]int(nil), s.p...),
		row: append([]int(nil), s.row...),
	}
}

// unassignRow removes row r (1-based) from the matching; a no-op when the
// row is unmatched. Potentials are kept: they stay dual-feasible, and the
// next solve re-augments the row from them.
func (s *apState) unassignRow(r int) {
	if c := s.row[r]; c != 0 {
		s.p[c] = 0
		s.row[r] = 0
	}
}

// augment matches one unmatched row i (1-based) by the shortest augmenting
// path under the current potentials.
func (s *apState) augment(m Matrix, i int) {
	n := s.n
	if cap(s.way) <= n {
		s.way = make([]int, n+1)
		s.minv = make([]int, n+1)
		s.used = make([]bool, n+1)
	}
	way, minv, used := s.way[:n+1], s.minv[:n+1], s.used[:n+1]
	for j := 0; j <= n; j++ {
		minv[j] = apInf
		used[j] = false
	}
	s.p[0] = i
	j0 := 0
	for {
		used[j0] = true
		i0 := s.p[j0]
		delta := apInf
		j1 := 0
		for j := 1; j <= n; j++ {
			if used[j] {
				continue
			}
			cur := m[i0-1][j-1] - s.u[i0] - s.v[j]
			if cur < minv[j] {
				minv[j] = cur
				way[j] = j0
			}
			if minv[j] < delta {
				delta = minv[j]
				j1 = j
			}
		}
		for j := 0; j <= n; j++ {
			if used[j] {
				s.u[s.p[j]] += delta
				s.v[j] -= delta
			} else {
				minv[j] -= delta
			}
		}
		j0 = j1
		if s.p[j0] == 0 {
			break
		}
	}
	for j0 != 0 {
		j1 := way[j0]
		s.p[j0] = s.p[j1]
		s.row[s.p[j0]] = j0
		j0 = j1
	}
	s.p[0] = 0
}

// solve completes the matching (augmenting every currently unmatched row in
// index order, which makes warm re-solves deterministic) and returns the
// optimal assignment and its cost on m. On a fresh state this is exactly
// the classic full Hungarian solve.
func (s *apState) solve(m Matrix) (rowToCol []int, cost int) {
	for i := 1; i <= s.n; i++ {
		if s.row[i] == 0 {
			s.augment(m, i)
		}
	}
	rowToCol = make([]int, s.n)
	for i := 1; i <= s.n; i++ {
		rowToCol[i-1] = s.row[i] - 1
		cost += m[i-1][rowToCol[i-1]]
	}
	return rowToCol, cost
}

// assignment solves the linear assignment problem on the cost matrix
// (ignoring nothing — diagonal entries must already be set to Inf by the
// caller when self-assignment is forbidden). It returns the column chosen
// for each row and the optimal total cost. It is a fresh full solve of the
// incremental apState machinery and produces the same matching (including
// tie-breaks) as the pre-incremental implementation: rows are inserted in
// index order with zero initial potentials.
func assignment(m Matrix) (rowToCol []int, cost int) {
	return newAPState(len(m)).solve(m)
}
