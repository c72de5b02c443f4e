// Package cover implements the paper's Section 6 non-redundancy check: the
// March test is split into elementary blocks (its read-and-verify
// operations, each the observation of the excitations since the previous
// read), a Coverage Matrix of blocks × fault conditions is built from the
// fault simulator's per-run mismatch attribution, and a Set Covering
// instance over the matrix decides whether every block is necessary: the
// test is non-redundant exactly when the minimum cover uses all rows.
//
// The matrix columns are one per (fault instance, initial memory content,
// ⇕ resolution) triple — the finest grain at which guaranteed detection is
// defined — so a block set covering all columns is exactly a block set
// that still detects every fault.
package cover

import (
	"context"
	"fmt"
	"sort"

	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
	"marchgen/internal/sim"
	"marchgen/internal/simd"
	"marchgen/march"
)

// Matrix is the Coverage Matrix: Rows lists the flattened operation
// indices of the test's detecting reads (the elementary blocks), Cols
// labels the fault conditions, and At(r, c) is true when block r observes
// a mismatch for condition c. Rows are stored as dense bitsets, so the
// set-covering primitives (coverage gains, candidate counts) are masked
// popcounts over machine words instead of boolean scans.
type Matrix struct {
	Rows []int
	Cols []string
	// cells[r] is block r's column-membership bitset.
	cells []simd.Bitset
}

// Build assembles the Coverage Matrix for a test against a fault list.
// It fails when some fault condition has no mismatching read at all — the
// matrix is only meaningful for complete tests.
func Build(t *march.Test, instances []fault.Instance) (*Matrix, error) {
	return BuildCtx(context.Background(), t, instances, nil)
}

// At reports whether block r observes a mismatch for fault condition c.
func (m *Matrix) At(r, c int) bool { return m.cells[r].Get(c) }

// Clone deep-copies the matrix, so cached matrices can be handed out
// without aliasing the cache's copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		Rows:  append([]int(nil), m.Rows...),
		Cols:  append([]string(nil), m.Cols...),
		cells: make([]simd.Bitset, len(m.cells)),
	}
	for r := range m.cells {
		c.cells[r] = m.cells[r].Clone()
	}
	return c
}

// matrixKey fingerprints a (test, fault list) pair for the memo cache.
func matrixKey(t *march.Test, instances []fault.Instance) string {
	return memo.NewFingerprinter("cover").Str(t.String()).Str(fault.Key(instances)).Key()
}

// BuildCtx is Build under a context and, when cache is non-nil, memoised
// under the canonical (test, fault list) fingerprint; the matrix is
// byte-identical warm or cold. The per-run simulation is one
// sim.RunsBatch call on the caller's goroutine. The context carries the
// observability run (when one is attached): the build gets a
// verify/cover span and the matrix shape lands in the run's metrics.
func BuildCtx(ctx context.Context, t *march.Test, instances []fault.Instance, cache *memo.Cache) (*Matrix, error) {
	run := obs.From(ctx)
	sp := run.StartUnder("verify/cover").SetInt("instances", int64(len(instances)))
	var key string
	if cache != nil {
		key = matrixKey(t, instances)
		if v, ok := cache.Get(key); ok {
			run.Counter("memo.matrix_hits").Inc()
			m := v.(*Matrix).Clone()
			sp.SetInt("cached", 1)
			observeMatrix(run, sp, m)
			return m, nil
		}
	}
	type column struct {
		label string
		ops   []int
	}
	perInstance, err := sim.RunsBatch(ctx, t, instances, sim.Kernel)
	if err != nil {
		sp.End()
		return nil, err
	}
	var cols []column
	for i, runs := range perInstance {
		inst := instances[i]
		for k, run := range runs {
			if len(run.MismatchOps) == 0 {
				sp.End()
				return nil, fmt.Errorf("cover: test %s misses %s (init %s)", t, inst.Name, run.Init)
			}
			cols = append(cols, column{
				label: fmt.Sprintf("%s/init=%s/res=%d", inst.Name, run.Init, k),
				ops:   run.MismatchOps,
			})
		}
		// Every run of instance i mismatched: its coverage obligation is
		// satisfied — stream the verify path's progress through the list.
		run.Progress().Coverage(int64(i+1), int64(len(instances)))
	}
	// The row universe is the test's flattened op index space; a scratch
	// presence slice replaces the old map-backed row set.
	numOps := len(t.Ops())
	present := make([]bool, numOps)
	for _, col := range cols {
		for _, op := range col.ops {
			present[op] = true
		}
	}
	m := &Matrix{}
	rowIdx := make([]int, numOps)
	for op, ok := range present {
		if ok {
			rowIdx[op] = len(m.Rows)
			m.Rows = append(m.Rows, op)
		}
	}
	m.cells = make([]simd.Bitset, len(m.Rows))
	for r := range m.cells {
		m.cells[r] = simd.NewBitset(len(cols))
	}
	for c, col := range cols {
		m.Cols = append(m.Cols, col.label)
		for _, op := range col.ops {
			m.cells[rowIdx[op]].Set(c)
		}
	}
	if cache != nil {
		cache.Put(key, m.Clone())
	}
	observeMatrix(run, sp, m)
	return m, nil
}

// observeMatrix records the matrix shape and fill rate (set cells per
// thousand) on the span and in the metrics, then ends the span. The
// O(rows·cols) fill scan only runs when observation is on.
func observeMatrix(run *obs.Run, sp *obs.Span, m *Matrix) {
	if run == nil {
		return
	}
	set := 0
	for r := range m.cells {
		set += m.cells[r].Count()
	}
	permille := int64(0)
	if total := len(m.Rows) * len(m.Cols); total > 0 {
		permille = int64(set) * 1000 / int64(total)
	}
	run.Counter("cover.rows").Add(int64(len(m.Rows)))
	run.Counter("cover.cols").Add(int64(len(m.Cols)))
	run.Histogram("cover.fill_permille").Observe(permille)
	sp.SetInt("rows", int64(len(m.Rows))).
		SetInt("cols", int64(len(m.Cols))).
		SetInt("fill_permille", permille).
		End()
}

// Greedy returns a feasible cover by repeatedly picking the row covering
// the most uncovered columns — the classical approximation, used as the
// branch-and-bound upper bound. Each round's gain scan is one masked
// popcount per row.
func (m *Matrix) Greedy() []int {
	covered := simd.NewBitset(len(m.Cols))
	var chosen []int
	for {
		best, bestGain := -1, 0
		for r := range m.cells {
			if gain := m.cells[r].CountNotIn(covered); gain > bestGain {
				best, bestGain = r, gain
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		covered.OrWith(m.cells[best])
	}
	sort.Ints(chosen)
	return chosen
}

// MinCover returns an optimal set cover (indices into Rows) by branch and
// bound, always branching on the uncovered column with the fewest
// candidate rows.
func (m *Matrix) MinCover() ([]int, error) {
	// candidates[c] is the number of rows covering column c, fixed for
	// the whole search; the branch column is the uncovered column with
	// the fewest candidates.
	candidates := make([]int, len(m.Cols))
	for r := range m.cells {
		row := m.cells[r]
		for c := range m.Cols {
			if row.Get(c) {
				candidates[c]++
			}
		}
	}
	for c, n := range candidates {
		if n == 0 {
			return nil, fmt.Errorf("cover: column %s is uncoverable", m.Cols[c])
		}
	}
	best := m.Greedy()
	covered := make([]int, len(m.Cols)) // coverage multiplicity per column
	var cur []int
	var rec func()
	rec = func() {
		if len(cur) >= len(best) {
			return // cannot improve
		}
		pick, pickCount := -1, 0
		for c := range m.Cols {
			if covered[c] > 0 {
				continue
			}
			if pick < 0 || candidates[c] < pickCount {
				pick, pickCount = c, candidates[c]
			}
		}
		if pick < 0 {
			best = append([]int(nil), cur...)
			return
		}
		for r := range m.cells {
			row := m.cells[r]
			if !row.Get(pick) {
				continue
			}
			cur = append(cur, r)
			for c := range m.Cols {
				if row.Get(c) {
					covered[c]++
				}
			}
			rec()
			for c := range m.Cols {
				if row.Get(c) {
					covered[c]--
				}
			}
			cur = cur[:len(cur)-1]
		}
	}
	rec()
	sort.Ints(best)
	return best, nil
}

// Report is the outcome of the non-redundancy analysis.
type Report struct {
	Matrix *Matrix
	// MinCover is an optimal choice of elementary blocks (flattened op
	// indices).
	MinCover []int
	// RedundantReads lists detecting reads outside the minimum cover
	// (empty for a non-redundant test).
	RedundantReads []int
	// RemovableOps lists operations whose individual removal keeps the
	// test complete (the stronger, op-level redundancy audit).
	RemovableOps []int
	// NonRedundant is true when every elementary block is necessary and
	// no operation is individually removable.
	NonRedundant bool
}

// Analyze runs the full Section 6 check on a test against a fault list.
func Analyze(t *march.Test, instances []fault.Instance) (*Report, error) {
	return AnalyzeCtx(context.Background(), t, instances, nil)
}

// AnalyzeCtx is Analyze under a context, on the caller's goroutine:
// cancelling ctx aborts the matrix build or the op-level audit (see
// RemovableOpsCtx) with a typed error, and a non-nil cache memoises the
// coverage matrix across runs. The report is byte-identical warm or
// cold. The audit skips RemovableOpsCtx's evaluation of t itself: the
// matrix build has already shown that every (instance, initial content,
// resolution) run of t mismatches, so only t's self-consistency, which
// the build does not check, is left to check.
func AnalyzeCtx(ctx context.Context, t *march.Test, instances []fault.Instance, cache *memo.Cache) (*Report, error) {
	m, err := BuildCtx(ctx, t, instances, cache)
	if err != nil {
		return nil, err
	}
	mc, err := m.MinCover()
	if err != nil {
		return nil, err
	}
	rep := &Report{Matrix: m}
	for _, r := range mc {
		rep.MinCover = append(rep.MinCover, m.Rows[r])
	}
	inCover := map[int]bool{}
	for _, r := range mc {
		inCover[r] = true
	}
	for r := range m.Rows {
		if !inCover[r] {
			rep.RedundantReads = append(rep.RedundantReads, m.Rows[r])
		}
	}
	removable, err := audit(ctx, t, instances, false)
	if err != nil {
		return nil, err
	}
	rep.RemovableOps = removable
	rep.NonRedundant = len(rep.RedundantReads) == 0 && len(removable) == 0
	return rep, nil
}

// AnalyzeWorkers is AnalyzeCtx; the worker count is ignored. The audit
// runs on its caller's goroutine: each trial removal is one evaluation
// of a few kernel blocks, and no benchmark row showed the trials'
// fan-out paying for itself. The parameter stays because callers
// outside this module (the repository benchmark's layer replay) pass
// it.
func AnalyzeWorkers(ctx context.Context, t *march.Test, instances []fault.Instance, _ int, cache *memo.Cache) (*Report, error) {
	return AnalyzeCtx(ctx, t, instances, cache)
}

// RemovableOps returns the flattened indices of operations whose
// individual removal keeps the test complete — the op-level redundancy
// audit (stronger than the read-block set covering, since it also judges
// writes).
func RemovableOps(t *march.Test, instances []fault.Instance) ([]int, error) {
	return RemovableOpsCtx(context.Background(), t, instances)
}

// RemovableOpsCtx is RemovableOps under a context: the base evaluation
// and every trial removal (each re-simulates the whole fault list) run
// on the caller's goroutine on one sim.Evaluator, and ctx is checked
// after every trial. Cancelling ctx aborts the audit with a typed error
// (budget.ErrCanceled or budget.ErrDeadlineExceeded). The evaluations
// count in the metrics of the observability run attached to ctx, under
// one verify/audit span rather than one span each (see obs.Quiet).
func RemovableOpsCtx(ctx context.Context, t *march.Test, instances []fault.Instance) ([]int, error) {
	return audit(ctx, t, instances, true)
}

// audit is the op-level redundancy audit. With evalBase set it first
// evaluates t and fails unless t is complete; without, it only checks
// that t is self-consistent, in the same place, so the caller must
// already know t complete.
func audit(ctx context.Context, t *march.Test, instances []fault.Instance, evalBase bool) ([]int, error) {
	sp := obs.From(ctx).StartUnder("verify/audit")
	defer sp.End()
	ctx = obs.Quiet(ctx)
	if !evalBase {
		if err := sim.SelfConsistent(t); err != nil {
			return nil, err
		}
	}
	ev, err := sim.NewEvaluator(ctx, instances)
	if err != nil {
		return nil, err
	}
	if evalBase {
		cov, err := ev.Evaluate(ctx, t)
		if err != nil {
			return nil, err
		}
		if !cov.Complete() {
			return nil, fmt.Errorf("cover: test %s misses %v", t, cov.Missed())
		}
	}
	var removable []int
	flat := 0
	for e := range t.Elements {
		for o := range t.Elements[e].Ops {
			// A structurally invalid trial is not simulated; one that
			// fails to evaluate (a read no longer expecting what the
			// fault-free memory holds) is not removable.
			if cand := t.WithoutOp(e, o); cand.Validate() == nil {
				if c, err := ev.Evaluate(ctx, cand); err == nil && c.Complete() {
					removable = append(removable, flat)
				}
			}
			if err := budget.CtxErr(ctx); err != nil {
				return nil, err
			}
			flat++
		}
	}
	sp.SetInt("trials", int64(flat)).SetInt("removable", int64(len(removable)))
	return removable, nil
}
