package marchgen

import (
	"context"
	"errors"
	"testing"
	"time"

	"marchgen/diag"
	"marchgen/fault"
	"marchgen/internal/obs"
	"marchgen/march"
)

// propertyLists are the fault-list subsets the parallel/caching properties
// are checked over: single models, the paper's Table 3 prefixes and a
// parameterized instance list.
var propertyLists = []string{
	"SAF",
	"TF",
	"CFin",
	"SAF,TF",
	"SAF,TF,ADF",
	"SAF,TF,ADF,CFin",
}

// TestParallelMatchesSequential is the parallel engine's central
// property: the generated test, its complexity, the optimal path cost,
// the candidate count and the minimum selection cost are byte-identical
// at any worker count (run under -cpu 1,2,8 and -race in
// CI to vary real parallelism and scheduling).
func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, faults := range propertyLists {
		want, err := GenerateCtx(ctx, faults, WithWorkers(1), WithoutCache())
		if err != nil {
			t.Fatalf("%s sequential: %v", faults, err)
		}
		for _, workers := range []int{2, 4, 0} {
			got, err := GenerateCtx(ctx, faults, WithWorkers(workers), WithoutCache())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", faults, workers, err)
			}
			if got.Test.String() != want.Test.String() {
				t.Errorf("%s workers=%d: test %q, sequential %q",
					faults, workers, got.Test, want.Test)
			}
			if got.Complexity != want.Complexity {
				t.Errorf("%s workers=%d: complexity %d, sequential %d",
					faults, workers, got.Complexity, want.Complexity)
			}
			if got.Stats.PathCost != want.Stats.PathCost {
				t.Errorf("%s workers=%d: path cost %d, sequential %d",
					faults, workers, got.Stats.PathCost, want.Stats.PathCost)
			}
			if got.Stats.Candidates != want.Stats.Candidates {
				t.Errorf("%s workers=%d: %d candidates, sequential %d",
					faults, workers, got.Stats.Candidates, want.Stats.Candidates)
			}
			if got.Stats.MinSelectionCost != want.Stats.MinSelectionCost {
				t.Errorf("%s workers=%d: min selection cost %d, sequential %d",
					faults, workers, got.Stats.MinSelectionCost, want.Stats.MinSelectionCost)
			}
		}
	}
}

// TestGeneratedTestsCompleteAndNonRedundant checks the paper's two output
// guarantees hold for every subset, at more than one worker count: the
// simulator detects every fault instance, and no operation is wasted.
func TestGeneratedTestsCompleteAndNonRedundant(t *testing.T) {
	ctx := context.Background()
	for _, faults := range propertyLists {
		for _, workers := range []int{1, 4} {
			res, err := GenerateCtx(ctx, faults, WithWorkers(workers), WithoutCache())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", faults, workers, err)
			}
			rep, err := VerifyWorkersCtx(ctx, res.Test, faults, workers)
			if err != nil {
				t.Fatalf("%s workers=%d verify: %v", faults, workers, err)
			}
			if !rep.Complete {
				t.Errorf("%s workers=%d: incomplete, missed %v", faults, workers, rep.Missed)
			}
			if !rep.NonRedundant {
				t.Errorf("%s workers=%d: redundant ops %v, reads %v",
					faults, workers, rep.RemovableOps, rep.RedundantReads)
			}
		}
	}
}

// TestVerifyOnCallerGoroutine pins that verification never fans out.
// On the 24 instances of SAF,TF,ADF,CFin,CFid (two kernel blocks),
// VerifyWorkersCtx at workers 4, VerifyNCtx and diag.BuildCtx record no
// pool fan-out in the run on their context, and the redundancy audit's
// evaluations land in that run's metrics: the verify's own and the 9 of
// March C-'s 10 trial removals that leave a valid test. The audit does
// not evaluate the test again, since the coverage matrix has already
// shown it complete. The audit records one span, not one per
// evaluation.
func TestVerifyOnCallerGoroutine(t *testing.T) {
	const faults = "SAF,TF,ADF,CFin,CFid"
	models, err := fault.ParseList(faults)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fault.Instances(models)); n != 24 {
		t.Fatalf("%d instances, want 24 (two kernel blocks)", n)
	}
	kt, _ := march.Known("MarchC-")
	run := obs.NewRun()
	ctx := obs.Into(context.Background(), run)
	rep, err := VerifyWorkersCtx(ctx, kt.Test, faults, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || !rep.NonRedundant {
		t.Errorf("March C-: complete=%v non-redundant=%v, want both", rep.Complete, rep.NonRedundant)
	}
	nrep, err := VerifyNCtx(ctx, kt.Test, faults, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !nrep.Complete {
		t.Errorf("March C- incomplete on the 8-cell simulator, missed %v", nrep.Missed)
	}
	if _, _, err := diag.BuildCtx(ctx, kt.Test, models, time.Time{}); err != nil {
		t.Fatal(err)
	}
	snap := run.Snapshot()
	if n := snap["pool.fanouts"]; n != 0 {
		t.Errorf("%d pool fan-outs, want 0", n)
	}
	if n := snap["sim.evaluations"]; n != 10 {
		t.Errorf("%d two-cell evaluations, want 10", n)
	}
	spans := map[string]int{}
	for _, ev := range run.Events() {
		spans[ev.Name]++
	}
	if spans["verify/audit"] != 1 || spans["sim/evaluate"] != 1 {
		t.Errorf("%d verify/audit and %d sim/evaluate spans, want 1 each", spans["verify/audit"], spans["sim/evaluate"])
	}
}

// TestGenerateOneEvaluator pins that a generation looks its fault list's
// kernel blocks up once: the 24 instances of SAF,TF,ADF,CFin,CFid make
// two blocks, so a cold one-worker run records two block lookups
// (simd.block_cache_hits + simd.block_compiles) however many candidates
// its validate, shrink and finalize stages evaluate.
func TestGenerateOneEvaluator(t *testing.T) {
	res, err := GenerateCtx(context.Background(), "SAF,TF,ADF,CFin,CFid", WithoutCache(), WithWorkers(1), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Stats.Metrics
	if n := m[obs.CounterKernelBlockHits] + m[obs.CounterKernelBlockCompiles]; n != 2 {
		t.Errorf("%d block lookups, want 2 (one per block)", n)
	}
	if n := m["sim.evaluations"]; n < 50 {
		t.Errorf("%d evaluations, want the validate and shrink stages' many", n)
	}
}

// TestVerifyOneEvaluator pins that a verification looks its fault
// list's kernel blocks up once: its evaluation, the coverage matrix
// build and the redundancy audit share one evaluator, so verifying
// March C- against the two blocks of SAF,TF,ADF,CFin,CFid records two
// block lookups, cold or with the matrix memoised, next to the 10
// evaluations of TestVerifyOnCallerGoroutine.
func TestVerifyOneEvaluator(t *testing.T) {
	defer ResetCache()
	ResetCache()
	kt, _ := march.Known("MarchC-")
	for _, pass := range []string{"cold", "warm"} {
		run := obs.NewRun()
		rep, err := VerifyCtx(obs.Into(context.Background(), run), kt.Test, "SAF,TF,ADF,CFin,CFid")
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete || !rep.NonRedundant {
			t.Fatalf("%s: March C- complete=%v non-redundant=%v, want both", pass, rep.Complete, rep.NonRedundant)
		}
		snap := run.Snapshot()
		if n := snap[obs.CounterKernelBlockHits] + snap[obs.CounterKernelBlockCompiles]; n != 2 {
			t.Errorf("%s: %d block lookups, want 2 (one per block)", pass, n)
		}
		if n := snap["sim.evaluations"]; n != 10 {
			t.Errorf("%s: %d evaluations, want 10", pass, n)
		}
	}
}

// TestCacheWarmHitIsIdentical checks the memo-cache contract: the second
// generation of the same fault list is served from the cache
// (Stats.FromCache), is byte-identical to the cold run, and does not alias
// the cached value (mutating one result must not corrupt the next).
func TestCacheWarmHitIsIdentical(t *testing.T) {
	ctx := context.Background()
	defer ResetCache()
	for _, faults := range propertyLists {
		ResetCache()
		cold, err := GenerateCtx(ctx, faults, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s cold: %v", faults, err)
		}
		if cold.Stats.FromCache {
			t.Fatalf("%s: cold run claims a cache hit", faults)
		}
		warm, err := GenerateCtx(ctx, faults, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s warm: %v", faults, err)
		}
		if !warm.Stats.FromCache {
			t.Errorf("%s: warm run was not served from the cache", faults)
		}
		if warm.Test.String() != cold.Test.String() || warm.Complexity != cold.Complexity {
			t.Errorf("%s: warm %q (k=%d) differs from cold %q (k=%d)",
				faults, warm.Test, warm.Complexity, cold.Test, cold.Complexity)
		}
		// The cached entry hands out clones: mutate this result and re-read.
		if len(warm.Test.Elements) > 0 {
			warm.Test.Elements = warm.Test.Elements[:0]
		}
		again, err := GenerateCtx(ctx, faults, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s again: %v", faults, err)
		}
		if again.Test.String() != cold.Test.String() {
			t.Errorf("%s: mutating a cached result leaked back: %q", faults, again.Test)
		}
	}
}

// TestCacheAcrossWorkerCounts checks the cache key deliberately excludes
// the worker count: a result primed sequentially serves parallel callers,
// because results are identical at any worker count.
func TestCacheAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	defer ResetCache()
	ResetCache()
	cold, err := GenerateCtx(ctx, "SAF,TF", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := GenerateCtx(ctx, "SAF,TF", WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.FromCache {
		t.Error("worker count leaked into the cache key")
	}
	if warm.Test.String() != cold.Test.String() {
		t.Errorf("cached %q differs from cold %q", warm.Test, cold.Test)
	}
}

// TestWithoutCacheBypasses checks WithoutCache never reports (or creates)
// cache hits, and that option-bearing runs use distinct cache keys from
// default runs.
func TestWithoutCacheBypasses(t *testing.T) {
	ctx := context.Background()
	defer ResetCache()
	ResetCache()
	if _, err := GenerateCtx(ctx, "SAF", WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	res, err := GenerateCtx(ctx, "SAF", WithWorkers(1), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FromCache {
		t.Error("WithoutCache run was served from the cache")
	}
	// A different option set must not collide with the cached default run.
	shrunk, err := GenerateCtx(ctx, "SAF", WithWorkers(1), WithoutShrink())
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Stats.FromCache {
		t.Error("WithoutShrink run hit the default run's cache entry")
	}
}

// TestBudgetedRunsBypassCache checks the budget/cache rule: a budgeted run
// must not be served a cached unbudgeted result (its degradation semantics
// would silently change), and must not poison the cache for later
// unbudgeted calls.
func TestBudgetedRunsBypassCache(t *testing.T) {
	ctx := context.Background()
	defer ResetCache()
	ResetCache()
	if _, err := GenerateCtx(ctx, "SAF", WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	b, err := ParseBudget("nodes=1000000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := GenerateCtx(ctx, "SAF", WithWorkers(1), WithBudget(b))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FromCache {
		t.Error("budgeted run was served from the cache")
	}
}

// TestNegativeWorkersRejected checks worker validation is typed usage
// error, from the core entry point.
func TestNegativeWorkersRejected(t *testing.T) {
	_, err := GenerateCtx(context.Background(), "SAF", WithWorkers(-1))
	if !errors.Is(err, ErrUsage) {
		t.Fatalf("err = %v, want ErrUsage", err)
	}
}

// TestRepeatedRunsDeterministic re-generates the same list several times
// with the cache disabled: the engine itself (not the cache) must be
// deterministic.
func TestRepeatedRunsDeterministic(t *testing.T) {
	ctx := context.Background()
	var want string
	for rep := 0; rep < 3; rep++ {
		res, err := GenerateCtx(ctx, "SAF,TF,ADF", WithWorkers(0), WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			want = res.Test.String()
		} else if got := res.Test.String(); got != want {
			t.Fatalf("rep %d: %q, first run %q", rep, got, want)
		}
	}
}
