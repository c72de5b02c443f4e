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
//	marchbench -require-solver-gain 3   # fail unless warm beats enumerate 3x
//	marchbench -solver-baseline BENCH_generate.json -require-adaptive-gain 1.5
//	                                    # fail unless warm beats the committed
//	                                    # solver-warmstart entry 1.5x further
//
// BENCH_generate.json is an append-only list of labelled entries: writing
// with -o loads the existing file (the legacy single-sweep schema is
// surfaced as a "pre-kernel" entry) and upserts this run's entry by label,
// so before/after engine comparisons live in one committed file.
//
// Each row also reports the warm-phase memo cache traffic (hits, misses,
// evictions) and the parallel configuration's worker-pool utilisation,
// measured on a separate instrumented run so the timed runs stay
// observation-free. The same instrumented run backs -require-kernel: the
// flag fails the process when sim.kernel_traces is zero or
// sim.scalar_fallbacks is non-zero, guarding CI against a silent fallback
// to the scalar engine.
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
// -require-adaptive-gain guard compares warm node counts against: the
// campaign taken just before the bound-escalation ladder landed.
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
	workers := flag.Int("workers", 0, "worker count of the parallel configuration: selection sweep, simulation and exact ATSP (0: GOMAXPROCS)")
	label := flag.String("label", "kernel", "label of the bench-file entry this run writes")
	requireKernel := flag.Bool("require-kernel", false,
		"fail unless the instrumented run used the bit-parallel kernel with no scalar fallback")
	requireSolverGain := flag.Float64("require-solver-gain", 0,
		"fail unless the warm solver cuts total exact-solver nodes by at least this factor on every complexity-6 row, with the joint solver no worse (0: don't check)")
	solverBaseline := flag.String("solver-baseline", "",
		"bench file holding the committed solver-warmstart entry to compare warm node counts against (used by -require-adaptive-gain)")
	requireAdaptiveGain := flag.Float64("require-adaptive-gain", 0,
		"fail unless warm-mode nodes are at least this factor below the -solver-baseline entry's on some complexity-6 row, and no worse on any (0: don't check)")
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
		seq, t, err := measure(ctx, *reps, spec.Faults,
			marchgen.WithWorkers(1), marchgen.WithoutCache())
		if err != nil {
			return fail(spec.Faults, err)
		}
		row.SequentialNS, row.Test = seq.Nanoseconds(), t
		// Parallel: full worker pool, still no cache.
		par, pt, err := measure(ctx, *reps, spec.Faults,
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
			traces := ires.Stats.Metrics[obs.CounterKernelTraces] - before[obs.CounterKernelTraces]
			fallbacks := ires.Stats.Metrics[obs.CounterScalarFallbacks] - before[obs.CounterScalarFallbacks]
			if traces <= 0 || fallbacks != 0 {
				fmt.Fprintf(os.Stderr, "marchbench: %s: kernel not engaged (kernel_traces=%d, scalar_fallbacks=%d)\n",
					spec.Faults, traces, fallbacks)
				return budget.ExitFail
			}
		}
		// Kernel vs scalar: time the coverage-evaluation stage alone on
		// the generated test and its full instance list.
		if err := measureEval(&row, *reps, ires.Test, ires.Instances); err != nil {
			return fail(spec.Faults, err)
		}
		// Solver modes: total exact-solver nodes and wall time per mode,
		// single worker and cold cache so the counts are deterministic.
		if err := measureSolver(&row, *reps, spec.Faults, t); err != nil {
			return fail(spec.Faults, err)
		}
		if *requireSolverGain > 0 && spec.PaperComplexity == 6 {
			if float64(row.SolverNodesEnumerate) < *requireSolverGain*float64(row.SolverNodesWarm) ||
				row.SolverNodesJoint >= row.SolverNodesEnumerate {
				fmt.Fprintf(os.Stderr, "marchbench: %s: solver gain below %.1fx (enumerate=%d warm=%d joint=%d nodes)\n",
					spec.Faults, *requireSolverGain,
					row.SolverNodesEnumerate, row.SolverNodesWarm, row.SolverNodesJoint)
				return budget.ExitFail
			}
		}
		if adaptiveBase != nil && spec.PaperComplexity == 6 {
			baseWarm := baselineWarmNodes(adaptiveBase, spec.Faults)
			if baseWarm <= 0 {
				fmt.Fprintf(os.Stderr, "marchbench: %s: %q baseline entry has no warm node count for this row\n",
					spec.Faults, adaptiveBaselineLabel)
				return budget.ExitFail
			}
			if row.SolverNodesWarm > baseWarm {
				fmt.Fprintf(os.Stderr, "marchbench: %s: warm solver regressed against the %q baseline (%d nodes, baseline %d)\n",
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
		warm, wt, err := measure(ctx, *reps, spec.Faults, marchgen.WithWorkers(1))
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
		fmt.Fprintf(os.Stderr, "marchbench: no complexity-6 row beat the %q baseline by %.1fx warm nodes\n",
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

// measureSolver fills the row's solver-mode columns: one instrumented
// single-worker cold-cache generation per mode for the deterministic node
// totals (Held–Karp states + branch-and-bound expansions + enumeration
// nodes), plus timed repetitions of the warm and joint modes. Every mode
// must reproduce the baseline test byte for byte.
func measureSolver(row *experiments.BenchRow, reps int, faults, baseline string) error {
	ctx := context.Background()
	for _, mode := range []string{marchgen.SolverEnumerate, marchgen.SolverWarm, marchgen.SolverJoint} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := marchgen.GenerateCtx(ctx, faults,
			marchgen.WithSolverMode(mode), marchgen.WithWorkers(1),
			marchgen.WithoutCache(), marchgen.WithMetrics())
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		if s := res.Test.String(); s != baseline {
			return fmt.Errorf("solver mode %s diverges: %q vs %q", mode, s, baseline)
		}
		m := res.Stats.Metrics
		total := m["atsp.heldkarp.states"] + m["atsp.bb.expanded"] + m["atsp.enum.nodes"]
		switch mode {
		case marchgen.SolverEnumerate:
			row.SolverNodesEnumerate = total
			row.SolverAllocsEnumerate = m1.Mallocs - m0.Mallocs
		case marchgen.SolverWarm:
			row.SolverNodesWarm = total
			row.SolverAllocsWarm = m1.Mallocs - m0.Mallocs
			row.SolverEscalations = m["atsp.bb.escalated"] + m["atsp.enum.escalated"]
			row.SolverEscalationPrunes = m["atsp.bb.escpruned"] + m["atsp.enum.escpruned"]
		case marchgen.SolverJoint:
			row.SolverNodesJoint = total
		}
	}
	if row.SolverNodesWarm > 0 {
		row.SolverNodeReduction = float64(row.SolverNodesEnumerate) / float64(row.SolverNodesWarm)
	}
	warm, _, err := measure(ctx, reps, faults,
		marchgen.WithSolverMode(marchgen.SolverWarm), marchgen.WithWorkers(1), marchgen.WithoutCache())
	if err != nil {
		return err
	}
	row.SolverWarmNS = warm.Nanoseconds()
	joint, _, err := measure(ctx, reps, faults,
		marchgen.WithSolverMode(marchgen.SolverJoint), marchgen.WithWorkers(1), marchgen.WithoutCache())
	if err != nil {
		return err
	}
	row.SolverJointNS = joint.Nanoseconds()
	return nil
}

// measure runs GenerateCtx reps times and returns the minimum wall time
// plus the generated test's text (identical across repetitions, or the
// pipeline's determinism is broken and the caller aborts).
func measure(ctx context.Context, reps int, faults string, opts ...marchgen.Option) (time.Duration, string, error) {
	best, text := time.Duration(0), ""
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		res, err := marchgen.GenerateCtx(ctx, faults, opts...)
		if err != nil {
			return 0, "", err
		}
		d := time.Since(t0)
		if i == 0 || d < best {
			best = d
		}
		if s := res.Test.String(); text == "" {
			text = s
		} else if s != text {
			return 0, "", fmt.Errorf("non-deterministic result: %q vs %q", s, text)
		}
	}
	return best, text, nil
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
