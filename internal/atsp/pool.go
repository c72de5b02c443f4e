// Allocation reuse for the branch-and-bound hot path. Every expanded
// subproblem used to allocate a fresh constrained matrix, a fresh
// assignment-state clone and fresh augmenting-search scratch, and the
// enumeration's assignment rung a scratch matrix per bound: a measurable
// GC tax. The pools below recycle all three: a node returns its matrix and
// assignment state the moment it has been expanded (pruned, recorded or
// branched), and the next expansion reuses them without touching the
// allocator.
//
// Safety argument: a bbNode is expanded exactly once, by exactly one
// worker, and nothing outlives the expansion that references its matrix
// or assignment state — children clone both before the parent releases,
// the incumbent is recorded against the original matrix, and the bound
// hook contract requires test hooks to clone what they keep.
package atsp

import "sync"

// apPool recycles assignment states across branch-and-bound nodes.
var apPool = sync.Pool{New: func() any { return &apState{} }}

// apStateFor returns a zeroed assignment state for an n×n instance,
// reusing a pooled one when available.
func apStateFor(n int) *apState {
	s := apPool.Get().(*apState)
	s.reset(n)
	return s
}

// release returns the state to the pool. The caller must not touch it
// afterwards.
func (s *apState) release() {
	if s != nil {
		apPool.Put(s)
	}
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

// copyFrom makes s a deep copy of src (scratch excluded — it holds no
// state between augmentations).
func (s *apState) copyFrom(src *apState) {
	s.n = src.n
	s.u = append(s.u[:0], src.u...)
	s.v = append(s.v[:0], src.v...)
	s.p = append(s.p[:0], src.p...)
	s.row = append(s.row[:0], src.row...)
}

// clonePooled is clone backed by the pool: the copy must be released
// when its node has been expanded.
func (s *apState) clonePooled() *apState {
	c := apPool.Get().(*apState)
	c.copyFrom(s)
	return c
}

// resizeInts returns a slice of length n, reusing b's backing array when
// it is large enough.
func resizeInts(b []int, n int) []int {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int, n)
}

// matrixPool recycles square cost matrices (rows sliced out of one
// contiguous backing array, so a pooled matrix is a single allocation).
var matrixPool sync.Pool

// matrixFor returns an n×n matrix with undefined contents, reusing a
// pooled one of the right order when available.
func matrixFor(n int) Matrix {
	if v := matrixPool.Get(); v != nil {
		if m := v.(Matrix); len(m) == n && len(m[0]) == n {
			return m
		}
		// Wrong order: drop it and allocate fresh below.
	}
	back := make([]int, n*n)
	m := make(Matrix, n)
	for i := range m {
		m[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// releaseMatrix returns a matrix to the pool; callers must drop every
// reference first. Nil and ragged matrices are ignored.
func releaseMatrix(m Matrix) {
	if len(m) > 0 && len(m[0]) == len(m) {
		matrixPool.Put(m)
	}
}

// cloneInto copies src into a pooled matrix of the same order.
func cloneInto(src Matrix) Matrix {
	dst := matrixFor(len(src))
	for i := range src {
		copy(dst[i], src[i])
	}
	return dst
}
