package sim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
	"marchgen/internal/simd"
	"marchgen/march"
)

// InstanceResult is the verdict of a March test on one fault instance.
type InstanceResult struct {
	Instance fault.Instance
	// Detected reports guaranteed detection: a mismatch occurs for every
	// initial memory content under every ⇕ resolution.
	Detected bool
	// DetectingOps lists the flattened operation indices of the test
	// whose reads individually guarantee detection (mismatch for every
	// initial content, under every resolution). These are the columns of
	// the Coverage Matrix rows the instance can be charged to.
	DetectingOps []int
}

// Coverage is the result of evaluating a March test against a fault list.
type Coverage struct {
	Test    *march.Test
	Results []InstanceResult
}

// Clone deep-copies the coverage, so cached copies can be handed out
// without aliasing the cache's entry.
func (c Coverage) Clone() Coverage {
	out := Coverage{Results: make([]InstanceResult, len(c.Results))}
	if c.Test != nil {
		out.Test = c.Test.Clone()
	}
	for k, r := range c.Results {
		out.Results[k] = InstanceResult{
			Instance:     r.Instance,
			Detected:     r.Detected,
			DetectingOps: append([]int(nil), r.DetectingOps...),
		}
	}
	return out
}

// Detected counts the instances the test detects.
func (c Coverage) Detected() int {
	n := 0
	for _, r := range c.Results {
		if r.Detected {
			n++
		}
	}
	return n
}

// Complete reports whether every instance is detected.
func (c Coverage) Complete() bool {
	for _, r := range c.Results {
		if !r.Detected {
			return false
		}
	}
	return true
}

// Missed returns the names of undetected instances.
func (c Coverage) Missed() []string {
	var out []string
	for _, r := range c.Results {
		if !r.Detected {
			out = append(out, r.Instance.Name)
		}
	}
	return out
}

// Evaluate runs the two-cell engine: the March test is reduced to the input
// trace it induces on an aggressor/victim pair and each instance's machine
// is checked under the guaranteed-detection semantics. This placement-free
// reduction is exact because a March test applies identical operation
// sequences to every cell pair (see the package tests, which cross-check it
// against the n-cell engine).
func Evaluate(t *march.Test, instances []fault.Instance) (Coverage, error) {
	return EvaluateCtx(context.Background(), t, instances)
}

// EvaluateCtx is Evaluate with cancellation: the per-block loop checks
// ctx and aborts with a typed error (budget.ErrCanceled or
// budget.ErrDeadlineExceeded). The evaluation runs on the bit-parallel
// kernel, on the caller's goroutine, through a one-use Evaluator;
// callers that evaluate many tests against one fault list build one
// with NewEvaluator and keep it.
func EvaluateCtx(ctx context.Context, t *march.Test, instances []fault.Instance) (Coverage, error) {
	return EvaluateEngine(ctx, t, instances, 1, Kernel)
}

// EvaluateWorkers is EvaluateCtx; the worker count is ignored. An
// evaluation runs on its caller's goroutine: its work units are one
// 16-instance block each, tens of microseconds, too small for a
// fan-out to pay (splitting two blocks over two goroutines measured
// slower than running them inline), and in a generation the selection
// sweep's producers already hold the cores. The parameter stays because
// callers outside this module (the repository benchmark's layer replay)
// pass it.
func EvaluateWorkers(ctx context.Context, t *march.Test, instances []fault.Instance, workers int) (Coverage, error) {
	return EvaluateEngine(ctx, t, instances, workers, Kernel)
}

// EvaluateEngine is EvaluateCtx with an explicit engine choice; the
// worker count is ignored, as in EvaluateWorkers. The scalar engine is
// the reference oracle the differential tests compare the kernel
// against; production callers use Kernel, which is NewEvaluator plus
// Evaluate. A kernel evaluation whose blocks fail to compile returns
// that error instead of switching engines.
func EvaluateEngine(ctx context.Context, t *march.Test, instances []fault.Instance, _ int, engine Engine) (Coverage, error) {
	if engine == Scalar {
		return observeEvaluate(ctx, t, instances, nil)
	}
	ev, err := NewEvaluator(ctx, instances)
	if err != nil {
		return Coverage{}, err
	}
	return ev.Evaluate(ctx, t)
}

// evaluateScalar is the reference implementation: per instance, the
// closure-dispatch machine is walked over every resolution's trace with
// fsm.Detects / fsm.DetectingReads. The per-op detection tallies use a
// flat counter row indexed by flattened operation position.
func evaluateScalar(ctx context.Context, t *march.Test, instances []fault.Instance) (Coverage, error) {
	if err := SelfConsistent(t); err != nil {
		return Coverage{}, err
	}
	resolutions, err := Resolutions(t)
	if err != nil {
		return Coverage{}, err
	}
	type traced struct {
		trace     []fsm.Input
		positions []int
	}
	traces := make([]traced, len(resolutions))
	for k, res := range resolutions {
		tr, pos := Trace(t, res)
		traces[k] = traced{tr, pos}
	}
	cov := Coverage{Test: t}
	detecting := make([]int, len(t.Ops()))
	for _, inst := range instances {
		if err := budget.CtxErr(ctx); err != nil {
			return Coverage{}, err
		}
		r := InstanceResult{Instance: inst, Detected: true}
		clear(detecting)
		for _, tr := range traces {
			if !fsm.Detects(inst.Machine, tr.trace) {
				r.Detected = false
			}
			for _, k := range fsm.DetectingReads(inst.Machine, tr.trace) {
				if tr.positions[k] >= 0 {
					detecting[tr.positions[k]]++
				}
			}
		}
		for op, cnt := range detecting {
			if cnt == len(resolutions) && cnt > 0 {
				r.DetectingOps = append(r.DetectingOps, op)
			}
		}
		sort.Ints(r.DetectingOps)
		cov.Results = append(cov.Results, r)
	}
	return cov, nil
}

// Run is one (initial memory content, ⇕ resolution) execution of a March
// test against a fault instance.
type Run struct {
	// Init is the initial content of the instance's two model cells.
	Init fsm.State
	// Resolution is the concrete addressing order of each element.
	Resolution []march.Order
	// MismatchOps lists the flattened operation indices whose reads
	// exposed the fault in this run.
	MismatchOps []int
}

// Runs executes the test against one instance for every initial content
// and every ⇕ resolution, reporting per-run mismatch attribution. The test
// detects the instance exactly when every run has at least one mismatch;
// this is the granularity at which the Coverage Matrix of the paper's
// Section 6 is built. It runs on the bit-parallel kernel.
func Runs(t *march.Test, inst fault.Instance) ([]Run, error) {
	return RunsEngine(t, inst, Kernel)
}

// RunsEngine is Runs with an explicit engine choice (the scalar engine is
// the differential tests' oracle).
func RunsEngine(t *march.Test, inst fault.Instance, engine Engine) ([]Run, error) {
	batch, err := RunsBatch(context.Background(), t, []fault.Instance{inst}, engine)
	if err != nil {
		return nil, err
	}
	return batch[0], nil
}

// RunsBatch computes Runs for every instance of a fault list at once,
// returning the per-instance run lists in instance order, on the
// caller's goroutine. On the kernel engine it is NewEvaluator plus
// Evaluator.Runs: the whole batch shares the lowered traces and the
// compiled blocks, so the marginal cost per instance is a few bit
// operations per trace position. It neither validates the test nor
// checks its self-consistency. Results are byte-identical across
// engines; a kernel batch whose blocks fail to compile returns that
// error.
func RunsBatch(ctx context.Context, t *march.Test, instances []fault.Instance, engine Engine) ([][]Run, error) {
	if engine == Kernel {
		ev, err := NewEvaluator(ctx, instances)
		if err != nil {
			return nil, err
		}
		return ev.Runs(ctx, t)
	}
	resolutions, err := Resolutions(t)
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, nil
	}
	out := make([][]Run, len(instances))
	for i, inst := range instances {
		if err := budget.CtxErr(ctx); err != nil {
			return nil, err
		}
		out[i] = runsScalar(t, inst, resolutions)
	}
	return out, nil
}

// runsScalar is the reference implementation of Runs: one closure-dispatch
// machine walk per (initial content, ⇕ resolution), with a reusable
// seen-ops scratch row replacing the old per-run map.
func runsScalar(t *march.Test, inst fault.Instance, resolutions [][]march.Order) []Run {
	numOps := len(t.Ops())
	seen := make([]bool, numOps)
	var out []Run
	for _, res := range resolutions {
		trace, positions := Trace(t, res)
		for _, init := range fsm.ConcreteStates() {
			run := Run{Init: init, Resolution: res}
			clear(seen)
			for _, k := range fsm.MismatchingReads(inst.Machine, trace, init) {
				if op := positions[k]; op >= 0 && !seen[op] {
					seen[op] = true
					run.MismatchOps = append(run.MismatchOps, op)
				}
			}
			sort.Ints(run.MismatchOps)
			out = append(out, run)
		}
	}
	return out
}

// EvaluateN runs the n-cell engine on a memory of the given size: each
// instance is placed at representative address pairs, every initial content
// of the involved cells and every ⇕ resolution is enumerated, and detection
// must hold in all of them.
func EvaluateN(t *march.Test, instances []fault.Instance, n int) (Coverage, error) {
	return EvaluateNCtx(context.Background(), t, instances, n)
}

// EvaluateNCtx is EvaluateN with cancellation: the per-instance loop
// runs on the caller's goroutine, checks ctx before every instance and
// aborts with a typed error. Each instance's machine is compiled once
// and shared by all of its placement runs.
func EvaluateNCtx(ctx context.Context, t *march.Test, instances []fault.Instance, n int) (Coverage, error) {
	if run := obs.From(ctx); run != nil {
		sp := run.StartUnder("sim/evaluate_n").
			SetInt("instances", int64(len(instances))).
			SetInt("cells", int64(n))
		t0 := time.Now()
		run.Counter("sim.evaluations_n").Inc()
		run.Counter("sim.instances").Add(int64(len(instances)))
		defer func() {
			run.Histogram("sim.evaluate_ns").Observe(int64(time.Since(t0)))
			sp.End()
		}()
	}
	if err := SelfConsistent(t); err != nil {
		return Coverage{}, err
	}
	resolutions, err := Resolutions(t)
	if err != nil {
		return Coverage{}, err
	}
	cov := Coverage{Test: t}
	for _, inst := range instances {
		if err := budget.CtxErr(ctx); err != nil {
			return Coverage{}, err
		}
		lut := simd.Compile(inst.Machine)
		r := InstanceResult{Instance: inst, Detected: true}
		detecting := map[int]int{}
		runs := 0
		for _, pair := range placements(n) {
			for initMask := 0; initMask < 4; initMask++ {
				for _, res := range resolutions {
					mism, err := runPlaced(t, inst, lut, n, pair, initMask, res)
					if err != nil {
						return Coverage{}, err
					}
					runs++
					if len(mism) == 0 {
						r.Detected = false
					}
					for _, op := range mism {
						detecting[op]++
					}
				}
			}
		}
		for op, cnt := range detecting {
			if cnt == runs {
				r.DetectingOps = append(r.DetectingOps, op)
			}
		}
		sort.Ints(r.DetectingOps)
		cov.Results = append(cov.Results, r)
	}
	return cov, nil
}

// placements returns representative (A, B) address pairs with A < B:
// adjacent at the bottom, spanning the array, adjacent at the top.
func placements(n int) [][2]int {
	set := [][2]int{{0, 1}, {0, n - 1}, {n - 2, n - 1}}
	if n > 4 {
		set = append(set, [2]int{n / 2, n/2 + 1})
	}
	// Deduplicate for tiny memories.
	var out [][2]int
	seen := map[[2]int]bool{}
	for _, p := range set {
		if p[0] < p[1] && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// runPlaced executes one simulation run, with lut the instance's
// compiled machine, and returns the mismatching operation indices.
func runPlaced(t *march.Test, inst fault.Instance, lut *simd.Compiled, n int, pair [2]int, initMask int, res []march.Order) ([]int, error) {
	mem, err := newMemory(n, &PlacedFault{Instance: inst, A: pair[0], B: pair[1]}, lut)
	if err != nil {
		return nil, err
	}
	mem.SetCell(pair[0], march.BitOf(initMask&1 != 0))
	mem.SetCell(pair[1], march.BitOf(initMask&2 != 0))
	return mem.RunMarch(t, res), nil
}

// statesEqualErr is referenced by tests to document cross-engine agreement
// failures.
func statesEqualErr(name string, a, b Coverage) error {
	if len(a.Results) != len(b.Results) {
		return fmt.Errorf("sim: %s: result count %d vs %d", name, len(a.Results), len(b.Results))
	}
	for k := range a.Results {
		if a.Results[k].Detected != b.Results[k].Detected {
			return fmt.Errorf("sim: %s: instance %s: two-cell says %v, n-cell says %v",
				name, a.Results[k].Instance.Name, a.Results[k].Detected, b.Results[k].Detected)
		}
	}
	return nil
}
