package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// table3Lists are the paper's six Table 3 fault lists.
var table3Lists = []string{
	"SAF",
	"SAF,TF",
	"SAF,TF,ADF",
	"SAF,TF,ADF,CFin",
	"SAF,TF,ADF,CFin,CFid",
	"CFin",
}

// resultBytes renders every Result field the sweep decides.
func resultBytes(r *Result) string {
	return fmt.Sprintf("test=%s complexity=%d candidates=%d selections=%d nodes=%d path=%d minsel=%d degraded=%v%v fallback=%v",
		r.Test, r.Complexity, r.Candidates, r.Selections, r.Nodes, r.PathCost, r.MinSelectionCost,
		r.Degraded, r.DegradedStages, r.UsedFallback)
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// reducedMatrix reports that the invariance tests run a reduced matrix:
// under -short, and under the race detector, which slows the engine
// about tenfold. There the pool's concurrency is what is checked, and one
// pooled worker count exercises it; the root package's solver-mode
// differential still crosses every mode with four workers.
func reducedMatrix() bool { return testing.Short() || raceEnabled }

// sweepWorkerCounts are the worker counts the invariance tests compare
// against one worker.
func sweepWorkerCounts() []int {
	if reducedMatrix() {
		return []int{4}
	}
	return []int{2, 4, 8}
}

// checkWorkerInvariance generates list under opts at one worker and at
// every other worker count, and fails on any Result difference.
func checkWorkerInvariance(t *testing.T, list string, opts Options) {
	t.Helper()
	opts.Workers = 1
	want := resultBytes(generate(t, list, opts))
	for _, workers := range sweepWorkerCounts() {
		opts.Workers = workers
		if got := resultBytes(generate(t, list, opts)); got != want {
			t.Errorf("%s workers=%d:\n got %s\nwant %s", list, workers, got, want)
		}
	}
}

// TestSweepWorkerInvariance locks the produce/fold contract: the pooled
// sweep (workers > 1) folds exactly the candidate stream the inline sweep
// folds, so the whole Result is byte-identical at any worker count, in
// every solver mode and in heuristic mode.
func TestSweepWorkerInvariance(t *testing.T) {
	modes := []string{SolverEnumerate, SolverWarm, SolverJoint}
	if reducedMatrix() {
		modes = []string{SolverWarm}
	}
	for _, list := range table3Lists {
		for _, mode := range modes {
			opts := DefaultOptions()
			opts.SolverMode = mode
			checkWorkerInvariance(t, list, opts)
		}
		opts := DefaultOptions()
		opts.Exact = false
		checkWorkerInvariance(t, list, opts)
	}
}

// TestSweepWorkerInvarianceRandomLists extends the invariance to the
// property test's random fault lists.
func TestSweepWorkerInvarianceRandomLists(t *testing.T) {
	lists := randomSublists()
	if reducedMatrix() && len(lists) > 3 {
		lists = lists[:3]
	}
	for _, list := range lists {
		checkWorkerInvariance(t, list, DefaultOptions())
	}
}

// TestSweepBudgetedRunsInline locks that budgeted runs keep the
// sequential sweep whatever the worker count: their degrade points and
// results match one worker exactly.
func TestSweepBudgetedRunsInline(t *testing.T) {
	for _, b := range []budget.Budget{{ATSPNodes: 40}, {Candidates: 300}, {Selections: 9}} {
		opts := DefaultOptions()
		opts.Budget = b
		checkWorkerInvariance(t, "SAF,TF,ADF,CFin", opts)
	}
}

// TestSweepStagesPartitionWallTime checks the pooled sweep's stage
// clock: Stats.StageElapsed still partitions the caller's wall time, and
// the fold's waits land in atsp and assemble.
func TestSweepStagesPartitionWallTime(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	res := generate(t, "SAF,TF,ADF,CFin", opts)
	var sum time.Duration
	for _, d := range res.StageElapsed {
		sum += d
	}
	if sum > res.Elapsed || res.Elapsed-sum > res.Elapsed/10 {
		t.Fatalf("stages sum to %v of %v elapsed: %v", sum, res.Elapsed, res.StageElapsed)
	}
	if res.StageElapsed["atsp"]+res.StageElapsed["assemble"] < res.Elapsed/2 {
		t.Fatalf("fold waits not charged to atsp/assemble: %v of %v", res.StageElapsed, res.Elapsed)
	}
}

// TestSweepCancelMidSweep cancels a pooled sweep once the fold has
// reached selection 8 of 64: the run fails with ErrCanceled, and no
// producer goroutine outlives GenerateCtx.
func TestSweepCancelMidSweep(t *testing.T) {
	models, err := fault.ParseList("SAF,TF,ADF,CFin")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := obs.NewRun()
	run.Notify(func(ev obs.Event) {
		if ppm, ok := ev.Attrs["progress_ppm"].(int64); ok && ev.Name == "generate/select" && ppm >= 8*1_000_000/64 {
			cancel()
		}
	})
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Obs = run
	_, err = GenerateCtx(ctx, models, opts)
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines after the cancelled run, %d before:\n%s", n, base, firstLines(string(buf), 40))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
