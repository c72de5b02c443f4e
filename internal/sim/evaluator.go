package sim

import (
	"context"
	"fmt"
	"time"

	"marchgen/fault"
	"marchgen/internal/obs"
	"marchgen/internal/simd"
	"marchgen/march"
)

// Evaluator evaluates March tests against one fault list on the
// bit-parallel kernel. It holds the list's compiled kernel blocks,
// looked up once when it is built, so a run that evaluates many tests
// against the same list — a generation's validate and shrink stages,
// the redundancy audit's trial removals — pays the lookup once. It
// holds no mutable state: concurrent callers can share one value.
type Evaluator struct {
	instances []fault.Instance
	blocks    []*simd.Block
}

// NewEvaluator builds the evaluator of a fault list: one
// simd.CompiledBlocks call, whose cache hits and compiles it records in
// the observability run on ctx (simd.block_cache_hits and
// simd.block_compiles). An empty list needs no blocks.
func NewEvaluator(ctx context.Context, instances []fault.Instance) (*Evaluator, error) {
	ev := &Evaluator{instances: instances}
	if len(instances) == 0 {
		return ev, nil
	}
	blocks, hits, compiles, err := simd.CompiledBlocks(instances)
	if err != nil {
		return nil, fmt.Errorf("sim: kernel blocks: %w", err)
	}
	observeBlocks(obs.From(ctx), hits, compiles)
	ev.blocks = blocks
	return ev, nil
}

// Instances returns the fault list the evaluator was built for.
func (ev *Evaluator) Instances() []fault.Instance { return ev.instances }

// Evaluate is EvaluateCtx on the evaluator's fault list. The test is
// lowered into kernel form once, and the lowering's expected outputs
// give the self-consistency check, so a test SelfConsistent rejects
// fails with SelfConsistent's error. ctx is checked before every block.
func (ev *Evaluator) Evaluate(ctx context.Context, t *march.Test) (Coverage, error) {
	return observeEvaluate(ctx, t, ev.instances, ev)
}

// evaluate lowers t and runs it over the evaluator's blocks.
func (ev *Evaluator) evaluate(ctx context.Context, t *march.Test, run *obs.Run) (Coverage, error) {
	lw, err := lowerChecked(t)
	if err != nil {
		return Coverage{}, err
	}
	if len(ev.instances) == 0 {
		return Coverage{Test: t}, nil
	}
	observeKernel(run, len(ev.blocks), len(lw.traces), len(ev.instances))
	return evaluateKernel(ctx, t, ev.instances, lw, ev.blocks)
}

// Runs is RunsBatch on the evaluator's fault list and kernel blocks:
// the per-run mismatch attribution of every (instance, initial content,
// ⇕ resolution) triple, per instance in list order. Like RunsBatch it
// neither validates t nor checks its self-consistency.
func (ev *Evaluator) Runs(ctx context.Context, t *march.Test) ([][]Run, error) {
	resolutions, err := Resolutions(t)
	if err != nil {
		return nil, err
	}
	if len(ev.instances) == 0 {
		return nil, nil
	}
	lw, _ := lower(t, resolutions, false) // only the check can fail
	observeKernel(obs.From(ctx), len(ev.blocks), len(lw.traces), len(ev.instances))
	return runsKernel(ctx, lw, ev.blocks)
}

// observeEvaluate runs one evaluation, on ev's kernel blocks or, when ev
// is nil, on the scalar engine, under a sim/evaluate span and the
// sim.evaluations, sim.instances and sim.evaluate_ns metrics of the run
// on ctx.
func observeEvaluate(ctx context.Context, t *march.Test, instances []fault.Instance, ev *Evaluator) (Coverage, error) {
	run := obs.From(ctx)
	var sp *obs.Span
	if run != nil {
		sp = obs.SpanUnder(ctx, "sim/evaluate").SetInt("instances", int64(len(instances)))
		t0 := time.Now()
		run.Counter("sim.evaluations").Inc()
		run.Counter("sim.instances").Add(int64(len(instances)))
		defer func() {
			run.Histogram("sim.evaluate_ns").Observe(int64(time.Since(t0)))
			sp.End()
		}()
	}
	var cov Coverage
	var err error
	if ev != nil {
		cov, err = ev.evaluate(ctx, t, run)
	} else {
		cov, err = evaluateScalar(ctx, t, instances)
	}
	if err == nil && run != nil {
		// Publish the evaluation as live coverage progress and stamp the
		// detected count on the span: one count per evaluation, far off
		// the per-word kernel path.
		detected := int64(cov.Detected())
		sp.SetInt("detected", detected)
		run.Progress().Coverage(detected, int64(len(cov.Results)))
	}
	return cov, err
}
