// Command marchbench measures the generation engine over the paper's
// Table 3 fault lists in three configurations — sequential (one worker,
// cold cache), parallel (GOMAXPROCS workers, cold cache) and cached (warm
// memo cache) — verifies the three produce byte-identical tests, times the
// coverage-evaluation stage on the bit-parallel kernel against the scalar
// oracle (with allocations per evaluation), and writes the timings as
// JSON:
//
//	marchbench                          # print a BENCH_generate.json entry
//	marchbench -o BENCH_generate.json   # append/refresh the committed entry
//	marchbench -reps 5                  # more repetitions (minimum is kept)
//	marchbench -label kernel            # entry label in the bench file
//	marchbench -require-kernel          # fail unless the kernel engine ran
//	marchbench -solver-baseline BENCH_generate.json -require-adaptive-gain 1.5
//	                                    # fail unless solver nodes stay 1.5x
//	                                    # below the committed solver-warmstart
//	                                    # entry's warm column
//
// BENCH_generate.json is an append-only list of labelled entries: writing
// with -o loads the existing file (the legacy single-sweep schema is
// surfaced as a "pre-kernel" entry) and upserts this run's entry by label,
// so before/after engine comparisons live in one committed file.
//
// Each row also reports the sequential configuration's per-stage wall
// time (stage_ns: Stats.StageElapsed of its fastest repetition), the
// warm-phase memo cache traffic (hits, misses, evictions) and the
// parallel configuration's worker-pool utilisation,
// measured on a separate instrumented run so the timed runs stay
// observation-free. The same instrumented run backs -require-kernel: the
// flag fails the process when sim.kernel_traces is zero, guarding CI
// against a generation that no longer evaluates on the bit-parallel
// kernel. A kernel block that fails to compile fails the run by itself.
//
// Exit codes: 0 success, 1 failure (including a determinism violation or
// a -require-kernel violation), 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"marchgen"
	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/experiments"
	"marchgen/internal/obs"
	"marchgen/internal/sim"
	"marchgen/march"
)

func main() { os.Exit(run()) }

// adaptiveBaselineLabel names the committed bench entry the
// -require-adaptive-gain guard compares solver node counts against: the
// campaign taken just before the bound-escalation rungs landed, whose
// warm-mode column is the comparable one.
const adaptiveBaselineLabel = "solver-warmstart"

// baselineWarmNodes returns the baseline entry's warm-mode node count
// for the given fault list (0 when the row is absent or unmeasured).
func baselineWarmNodes(e *experiments.BenchEntry, faults string) int64 {
	for _, r := range e.Rows {
		if r.Faults == faults {
			return r.SolverNodesWarm
		}
	}
	return 0
}

func run() int {
	out := flag.String("o", "", "append the entry to this JSON file instead of stdout")
	reps := flag.Int("reps", 3, "repetitions per configuration (the minimum time is kept)")
	workers := flag.Int("workers", 0, "worker count of the parallel configuration: selection-sweep producers (0: GOMAXPROCS)")
	label := flag.String("label", "kernel", "label of the bench-file entry this run writes")
	requireKernel := flag.Bool("require-kernel", false,
		"fail unless the instrumented run evaluated on the bit-parallel kernel")
	solverBaseline := flag.String("solver-baseline", "",
		"bench file holding the committed solver-warmstart entry to compare warm node counts against (used by -require-adaptive-gain)")
	requireAdaptiveGain := flag.Float64("require-adaptive-gain", 0,
		"fail unless exact-solver nodes are at least this factor below the -solver-baseline entry's warm-mode nodes on some complexity-6 row, and no worse on any (0: don't check)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if *reps <= 0 {
		fmt.Fprintln(os.Stderr, "marchbench: -reps must be positive")
		return budget.ExitUsage
	}
	var adaptiveBase *experiments.BenchEntry
	if *requireAdaptiveGain > 0 {
		if *solverBaseline == "" {
			fmt.Fprintln(os.Stderr, "marchbench: -require-adaptive-gain needs -solver-baseline")
			return budget.ExitUsage
		}
		base, err := experiments.LoadBenchFile(*solverBaseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marchbench:", err)
			return budget.ExitFail
		}
		if adaptiveBase = base.Entry(adaptiveBaselineLabel); adaptiveBase == nil {
			fmt.Fprintf(os.Stderr, "marchbench: %s has no %q entry to compare against\n",
				*solverBaseline, adaptiveBaselineLabel)
			return budget.ExitFail
		}
	}
	if *label == "" {
		fmt.Fprintln(os.Stderr, "marchbench: -label must be non-empty")
		return budget.ExitUsage
	}
	w, err := budget.ParseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchbench:", err)
		return budget.ExitCode(err)
	}
	orun, finish, err := obsFlags.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchbench:", err)
		return budget.ExitUsage
	}
	defer finish()

	// The observability run (when requested) only observes the extra
	// instrumented runs; the timed repetitions stay observation-free.
	obsCtx := obs.Into(context.Background(), orun)
	ctx := context.Background()
	entry := experiments.BenchEntry{Label: *label, GoMaxProcs: runtime.GOMAXPROCS(0), Reps: *reps}
	adaptiveAchieved := false
	for _, spec := range experiments.Table3Spec() {
		row := experiments.BenchRow{Faults: spec.Faults, PoolWorkers: w}
		// Sequential: one worker, no cache — the PR 1 engine.
		seq, stages, t, err := measure(ctx, *reps, spec.Faults,
			marchgen.WithWorkers(1), marchgen.WithoutCache())
		if err != nil {
			return fail(spec.Faults, err)
		}
		row.SequentialNS, row.Test = seq.Nanoseconds(), t
		row.StageNS = make(map[string]int64, len(stages))
		for st, d := range stages {
			row.StageNS[st] = d.Nanoseconds()
		}
		// Parallel: full worker pool, still no cache.
		par, _, pt, err := measure(ctx, *reps, spec.Faults,
			marchgen.WithWorkers(w), marchgen.WithoutCache())
		if err != nil {
			return fail(spec.Faults, err)
		}
		row.ParallelNS = par.Nanoseconds()
		// Instrumented parallel run: complexity, pool utilisation, kernel
		// usage. With -trace/-metrics the CLI's shared run accumulates
		// across rows, so deltas come from per-row snapshots.
		irunCtx, before := obsCtx, map[string]int64(nil)
		if orun != nil {
			before = orun.Snapshot()
		} else {
			irunCtx = obs.Into(context.Background(), obs.NewRun())
		}
		ires, err := marchgen.GenerateCtx(irunCtx, spec.Faults,
			marchgen.WithWorkers(w), marchgen.WithoutCache())
		if err != nil {
			return fail(spec.Faults, err)
		}
		row.Complexity = ires.Complexity
		row.PoolUtilization = poolUtilization(before, ires.Stats.Metrics, w)
		if *requireKernel {
			if traces := ires.Stats.Metrics[obs.CounterKernelTraces] - before[obs.CounterKernelTraces]; traces <= 0 {
				fmt.Fprintf(os.Stderr, "marchbench: %s: kernel not engaged (kernel_traces=%d)\n", spec.Faults, traces)
				return budget.ExitFail
			}
		}
		// Kernel vs scalar: time the coverage-evaluation stage alone on
		// the generated test and its full instance list.
		if err := measureEval(&row, *reps, ires.Test, ires.Instances); err != nil {
			return fail(spec.Faults, err)
		}
		// Solver effort: total exact-solver nodes, single worker and cold
		// cache so the counts are deterministic.
		if err := measureSolver(&row, spec.Faults, t); err != nil {
			return fail(spec.Faults, err)
		}
		if adaptiveBase != nil && spec.PaperComplexity == 6 {
			baseWarm := baselineWarmNodes(adaptiveBase, spec.Faults)
			if baseWarm <= 0 {
				fmt.Fprintf(os.Stderr, "marchbench: %s: %q baseline entry has no warm node count for this row\n",
					spec.Faults, adaptiveBaselineLabel)
				return budget.ExitFail
			}
			if row.SolverNodesWarm > baseWarm {
				fmt.Fprintf(os.Stderr, "marchbench: %s: solver nodes regressed against the %q baseline (%d nodes, baseline %d)\n",
					spec.Faults, adaptiveBaselineLabel, row.SolverNodesWarm, baseWarm)
				return budget.ExitFail
			}
			if float64(baseWarm) >= *requireAdaptiveGain*float64(row.SolverNodesWarm) {
				adaptiveAchieved = true
			}
		}
		// Cached: prime the shared cache once, then measure warm hits.
		marchgen.ResetCache()
		if _, err := marchgen.GenerateCtx(ctx, spec.Faults, marchgen.WithWorkers(1)); err != nil {
			return fail(spec.Faults, err)
		}
		cacheBefore := marchgen.CacheSnapshot()
		warm, _, wt, err := measure(ctx, *reps, spec.Faults, marchgen.WithWorkers(1))
		if err != nil {
			return fail(spec.Faults, err)
		}
		cacheAfter := marchgen.CacheSnapshot()
		row.WarmCacheNS = warm.Nanoseconds()
		row.WarmCacheHits = cacheAfter.Hits - cacheBefore.Hits
		row.WarmCacheMisses = cacheAfter.Misses - cacheBefore.Misses
		row.WarmCacheEvictions = cacheAfter.Evictions - cacheBefore.Evictions
		if pt != t || wt != t || ires.Test.String() != t {
			fmt.Fprintf(os.Stderr, "marchbench: %s: configurations disagree: sequential %q, parallel %q, cached %q, instrumented %q\n",
				spec.Faults, t, pt, wt, ires.Test)
			return budget.ExitFail
		}
		row.SpeedupPar = float64(row.SequentialNS) / float64(row.ParallelNS)
		row.SpeedupWarm = float64(row.SequentialNS) / float64(row.WarmCacheNS)
		entry.Rows = append(entry.Rows, row)
	}
	if adaptiveBase != nil && !adaptiveAchieved {
		fmt.Fprintf(os.Stderr, "marchbench: no complexity-6 row beat the %q baseline by %.1fx solver nodes\n",
			adaptiveBaselineLabel, *requireAdaptiveGain)
		return budget.ExitFail
	}

	file := &experiments.BenchFile{}
	if *out != "" {
		if existing, err := experiments.LoadBenchFile(*out); err == nil {
			file = existing
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "marchbench:", err)
			return budget.ExitFail
		}
	}
	file.Upsert(entry)
	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchbench:", err)
		return budget.ExitFail
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return budget.ExitOK
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "marchbench:", err)
		return budget.ExitFail
	}
	fmt.Println("wrote", *out)
	return budget.ExitOK
}

// evalInnerIters is the inner-loop length of one coverage-evaluation
// timing repetition: single evaluations run in microseconds, so the inner
// loop keeps the timer resolution honest.
const evalInnerIters = 32

// measureEval times one coverage evaluation of the test against the
// instance list on both engines (minimum over reps of an averaged inner
// loop) and counts heap allocations per evaluation, filling the row's
// kernel columns.
func measureEval(row *experiments.BenchRow, reps int, t *march.Test, instances []fault.Instance) error {
	engines := []struct {
		engine sim.Engine
		ns     *int64
		allocs *uint64
	}{
		{sim.Kernel, &row.KernelEvalNS, &row.KernelAllocsPerOp},
		{sim.Scalar, &row.ScalarEvalNS, &row.ScalarAllocsPerOp},
	}
	ctx := context.Background()
	for _, e := range engines {
		// Warm once: compiles and caches the kernel's blocks so the timed
		// loop measures evaluation, not compilation.
		if _, err := sim.EvaluateEngine(ctx, t, instances, 1, e.engine); err != nil {
			return err
		}
		best := int64(0)
		var allocs uint64
		for r := 0; r < reps; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < evalInnerIters; i++ {
				if _, err := sim.EvaluateEngine(ctx, t, instances, 1, e.engine); err != nil {
					return err
				}
			}
			d := time.Since(t0).Nanoseconds() / evalInnerIters
			runtime.ReadMemStats(&m1)
			if r == 0 || d < best {
				best = d
				allocs = (m1.Mallocs - m0.Mallocs) / evalInnerIters
			}
		}
		*e.ns, *e.allocs = best, allocs
	}
	if row.KernelEvalNS > 0 {
		row.SpeedupKernel = float64(row.ScalarEvalNS) / float64(row.KernelEvalNS)
	}
	return nil
}

// measureSolver fills the row's solver columns from one instrumented
// single-worker cold-cache generation: the deterministic node total
// (Held–Karp states + branch-and-bound expansions + enumeration nodes),
// the enumeration's assignment-bound escalations and the whole run's heap
// allocations. The run must reproduce the baseline test byte for byte.
func measureSolver(row *experiments.BenchRow, faults, baseline string) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := marchgen.GenerateCtx(context.Background(), faults,
		marchgen.WithWorkers(1), marchgen.WithoutCache(), marchgen.WithMetrics())
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if s := res.Test.String(); s != baseline {
		return fmt.Errorf("instrumented run diverges: %q vs %q", s, baseline)
	}
	m := res.Stats.Metrics
	row.SolverNodesWarm = m["atsp.heldkarp.states"] + m["atsp.bb.expanded"] + m["atsp.enum.nodes"]
	row.SolverAllocsWarm = m1.Mallocs - m0.Mallocs
	row.SolverEscalations = m["atsp.enum.escalated"]
	row.SolverEscalationPrunes = m["atsp.enum.escpruned"]
	return nil
}

// measure runs GenerateCtx reps times and returns the minimum wall time,
// the per-stage breakdown (Stats.StageElapsed) of that fastest
// repetition, and the generated test's text (identical across
// repetitions, or the pipeline's determinism is broken and the caller
// aborts).
func measure(ctx context.Context, reps int, faults string, opts ...marchgen.Option) (time.Duration, map[string]time.Duration, string, error) {
	best, text := time.Duration(0), ""
	var stages map[string]time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		res, err := marchgen.GenerateCtx(ctx, faults, opts...)
		if err != nil {
			return 0, nil, "", err
		}
		d := time.Since(t0)
		if i == 0 || d < best {
			best, stages = d, res.Stats.StageElapsed
		}
		if s := res.Test.String(); text == "" {
			text = s
		} else if s != text {
			return 0, nil, "", fmt.Errorf("non-deterministic result: %q vs %q", s, text)
		}
	}
	return best, stages, text, nil
}

// poolUtilization sums the per-worker busy-time counters of one
// instrumented generation (the delta between the run's snapshot before
// the call and after it) and normalises by workers × generation wall
// time, yielding the busy fraction of the pool in [0, 1] (rounded to
// three decimals). A nil before map means the run was fresh.
func poolUtilization(before, after map[string]int64, workers int) float64 {
	elapsed := after["generate.elapsed_ns"] - before["generate.elapsed_ns"]
	if elapsed <= 0 || workers <= 0 {
		return 0
	}
	var busy int64
	for name, v := range after {
		if strings.HasPrefix(name, "pool.worker.") && strings.HasSuffix(name, ".busy_ns") {
			busy += v - before[name]
		}
	}
	u := float64(busy) / (float64(elapsed) * float64(workers))
	return math.Round(u*1000) / 1000
}

func fail(faults string, err error) int {
	fmt.Fprintf(os.Stderr, "marchbench: %s: %v\n", faults, err)
	return budget.ExitCode(err)
}
