package marchgen

import (
	"context"
	"fmt"

	"marchgen/fault"
	"marchgen/internal/cover"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
	"marchgen/internal/sim"
	"marchgen/march"
)

// boolInt renders a boolean as a span/metric attribute value.
func boolInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// InstanceCoverage is the verdict of a March test on one fault instance.
type InstanceCoverage struct {
	// Model and Name identify the instance (e.g. "CFid" / "CFid<u,0> agg=i").
	Model, Name string
	// Detected reports guaranteed detection: a read mismatch occurs for
	// every initial memory content under every ⇕ order resolution.
	Detected bool
	// DetectingOps lists flattened operation indices of the test whose
	// reads individually certify detection.
	DetectingOps []int
}

// CoverageReport is the outcome of verifying a March test against a fault
// list: the coverage verdict per instance plus the paper's Section 6
// non-redundancy analysis (run only when coverage is complete).
type CoverageReport struct {
	// Test is the verified test (parsed form, canonical element order).
	Test *march.Test
	// Complexity is the test's operation count per cell (the paper's
	// kn measure with k = Complexity).
	Complexity int
	// Complete is true when every fault instance is detected.
	Complete bool
	// Missed lists undetected instance names.
	Missed []string
	// Instances holds the per-instance verdicts.
	Instances []InstanceCoverage
	// NonRedundant is true when every elementary block of the test is
	// needed (minimum Set Cover uses all blocks) and no operation is
	// individually removable. Only meaningful when Complete.
	NonRedundant bool
	// RedundantReads lists detecting reads outside the minimum cover.
	RedundantReads []int
	// RemovableOps lists operations whose individual removal keeps the
	// test complete.
	RemovableOps []int
	// MinCoverBlocks is an optimal choice of elementary blocks (flattened
	// operation indices of reads).
	MinCoverBlocks []int
}

// Verify checks a March test against a comma-separated fault list using
// the two-cell engine of the fault simulator, and — when coverage is
// complete — runs the Coverage Matrix / Set Covering non-redundancy
// analysis.
func Verify(t *march.Test, faults string) (*CoverageReport, error) {
	return VerifyCtx(context.Background(), t, faults)
}

// VerifyCtx is Verify under a cancellation context: cancelling ctx aborts
// the per-instance simulation promptly with ErrCanceled or
// ErrDeadlineExceeded.
func VerifyCtx(ctx context.Context, t *march.Test, faults string) (*CoverageReport, error) {
	models, err := fault.ParseList(faults)
	if err != nil {
		return nil, err
	}
	return VerifyModelsCtx(ctx, t, models)
}

// VerifyWorkersCtx is VerifyCtx; the worker count is ignored. A
// verification runs on its caller's goroutine: the redundancy audit's
// trial removals are one evaluation of a few kernel blocks each, and no
// benchmark row showed their fan-out paying for itself. The parameter
// stays because callers outside this module (the repository benchmark's
// service workload) pass it.
func VerifyWorkersCtx(ctx context.Context, t *march.Test, faults string, _ int) (*CoverageReport, error) {
	return VerifyCtx(ctx, t, faults)
}

// VerifyModels is Verify for an already-built fault model list.
func VerifyModels(t *march.Test, models []fault.Model) (*CoverageReport, error) {
	return VerifyModelsCtx(context.Background(), t, models)
}

// VerifyModelsCtx is VerifyModels under a cancellation context; see
// VerifyCtx. The simulation, the coverage matrix and the redundancy
// audit run on the calling goroutine, and the coverage matrix is
// memoised in the process-wide cache across calls; the report is
// byte-identical warm or cold.
func VerifyModelsCtx(ctx context.Context, t *march.Test, models []fault.Model) (*CoverageReport, error) {
	if t == nil {
		return nil, fmt.Errorf("marchgen: nil test")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	instances := fault.Instances(models)
	run := obs.From(ctx)
	sp := run.Start("verify").SetInt("instances", int64(len(instances)))
	defer run.WithPhase(sp)()
	defer sp.End()
	ev, err := sim.NewEvaluator(ctx, instances)
	if err != nil {
		return nil, err
	}
	cov, err := ev.Evaluate(ctx, t)
	if err != nil {
		return nil, err
	}
	rep := coverageReport(t, cov)
	sp.SetInt("complete", boolInt(rep.Complete))
	if !rep.Complete {
		return rep, nil
	}
	analysis, err := cover.AnalyzeCtx(ctx, t, instances, memo.Shared())
	if err != nil {
		return nil, err
	}
	rep.NonRedundant = analysis.NonRedundant
	rep.RedundantReads = analysis.RedundantReads
	rep.RemovableOps = analysis.RemovableOps
	rep.MinCoverBlocks = analysis.MinCover
	return rep, nil
}

// coverageReport renders a simulator verdict as a CoverageReport, with
// the non-redundancy fields left for the caller.
func coverageReport(t *march.Test, cov sim.Coverage) *CoverageReport {
	rep := &CoverageReport{
		Test:       t,
		Complexity: t.Complexity(),
		Complete:   cov.Complete(),
		Missed:     cov.Missed(),
	}
	for _, r := range cov.Results {
		rep.Instances = append(rep.Instances, InstanceCoverage{
			Model:        r.Instance.Model,
			Name:         r.Instance.Name,
			Detected:     r.Detected,
			DetectingOps: append([]int(nil), r.DetectingOps...),
		})
	}
	return rep
}

// VerifyKnown verifies one of the classic March tests from package march
// (e.g. "MATS+", "MarchC-") against a fault list.
func VerifyKnown(name, faults string) (*CoverageReport, error) {
	kt, ok := march.Known(name)
	if !ok {
		return nil, fmt.Errorf("marchgen: unknown March test %q (known: %v)", name, march.KnownNames())
	}
	return Verify(kt.Test, faults)
}

// VerifyN re-validates coverage with the n-cell memory simulator (the
// paper's validation instrument) instead of the two-cell reduction. It is
// slower and exists for independent confirmation; the package tests prove
// both engines agree.
func VerifyN(t *march.Test, faults string, cells int) (*CoverageReport, error) {
	return VerifyNCtx(context.Background(), t, faults, cells)
}

// VerifyNCtx is VerifyN under a cancellation context; see VerifyCtx. The
// per-instance placement runs execute on the calling goroutine.
func VerifyNCtx(ctx context.Context, t *march.Test, faults string, cells int) (*CoverageReport, error) {
	models, err := fault.ParseList(faults)
	if err != nil {
		return nil, err
	}
	cov, err := sim.EvaluateNCtx(ctx, t, fault.Instances(models), cells)
	if err != nil {
		return nil, err
	}
	return coverageReport(t, cov), nil
}
