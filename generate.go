package marchgen

import (
	"context"
	"io"
	"runtime/debug"
	"time"

	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/core"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
	"marchgen/march"
)

// Option tunes Generate.
type Option func(*core.Options)

// WithHeuristicATSP replaces the exact ATSP solver with the layered
// nearest-neighbour / greedy-edge / or-opt heuristics. Generation gets
// faster on very large fault lists; the result stays a validated March
// test but its length is no longer guaranteed minimal.
func WithHeuristicATSP() Option {
	return func(o *core.Options) { o.Exact = false }
}

// WithSelectionLimit caps the enumeration of BFE equivalence-class
// selections (the paper's E = ∏|Cᵢ| product of Section 5). The default is
// 64.
func WithSelectionLimit(n int) Option {
	return func(o *core.Options) { o.SelectionLimit = n }
}

// WithoutShrink disables the final redundancy-elimination pass (an
// ablation knob; generated tests may then contain removable operations).
func WithoutShrink() Option {
	return func(o *core.Options) { o.DisableShrink = true }
}

// WithoutEquivalence disables the Section 5 BFE equivalence classes: every
// BFE gets its own Test Pattern Graph node (an ablation knob).
func WithoutEquivalence() Option {
	return func(o *core.Options) { o.DisableEquivalence = true }
}

// WithBeamWidth widens or narrows the rewrite engine's beam (default 48;
// 0 selects the default, a negative n is rejected with ErrUsage).
func WithBeamWidth(n int) Option {
	return func(o *core.Options) { o.Beam.BeamWidth = n }
}

// WithWorkers bounds the generation worker pool: the §5 selection sweep
// (each selection's exact solve and assembly) runs on at most n
// goroutines, the only parallelism inside one generation; each exact
// solve and each fault-simulator evaluation runs on one goroutine. n == 0
// (the default) uses GOMAXPROCS; a negative n is rejected with ErrUsage.
// The generated test and every statistic except timing are
// byte-identical at any worker count.
func WithWorkers(n int) Option {
	return func(o *core.Options) { o.Workers = n }
}

// WithoutCache disables the process-wide memo cache for this call: the
// run recomputes every coverage matrix, tour fragment and verdict from
// scratch and leaves no entries behind (cold-cache measurements, tests).
// Budgeted runs (WithBudget) bypass the cache regardless, so their
// degradation behaviour never depends on earlier runs.
func WithoutCache() Option {
	return func(o *core.Options) { o.Cache = nil }
}

// ensureObs attaches an observability run to the call's options, creating
// one on first use so WithMetrics and WithTrace compose.
func ensureObs(o *core.Options) *obs.Run {
	if o.Obs == nil {
		o.Obs = obs.NewRun()
	}
	return o.Obs
}

// WithMetrics enables the observability layer for this call: the pipeline
// records counters, gauges and histograms (per-stage time, ATSP node
// counts, memo hits, pool utilisation, coverage-matrix fill) and the final
// snapshot is returned in Stats.Metrics. Observation is off by default and
// costs nothing when off.
func WithMetrics() Option {
	return func(o *core.Options) { ensureObs(o) }
}

// WithTrace additionally streams the call's hierarchical span trace to w
// as JSON Lines, one event per line in span-sequence order, flushed when
// generation returns (see internal/obs for the schema). Span names and
// attributes are deterministic for a given fault list and options at one
// worker; timestamps and durations vary run to run. Implies WithMetrics.
func WithTrace(w io.Writer) Option {
	return func(o *core.Options) { ensureObs(o).DeferTrace(w) }
}

// ResetCache drops every entry of the process-wide memo cache that backs
// unbudgeted Generate calls. Cached and fresh results are byte-identical,
// so this only affects timing — it exists for cold-cache benchmarks.
func ResetCache() { memo.Shared().Reset() }

// CacheStats reports the cumulative hit/miss counters of the process-wide
// memo cache since the last ResetCache.
func CacheStats() (hits, misses uint64) { return memo.Shared().Stats() }

// CacheInfo is a point-in-time snapshot of the process-wide memo cache.
type CacheInfo struct {
	// Hits and Misses count lookups since the last ResetCache.
	Hits, Misses uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Entries is the current number of cached entries.
	Entries int
}

// CacheSnapshot reports the process-wide memo cache counters atomically
// (one lock acquisition), including evictions and the live entry count.
func CacheSnapshot() CacheInfo {
	s := memo.Shared().Snapshot()
	return CacheInfo{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
}

// Stats reports the pipeline effort behind a generated test.
type Stats struct {
	// Classes is the number of BFE equivalence classes of the fault list.
	Classes int
	// Selections is the number of class selections enumerated.
	Selections int
	// TPGNodes is the Test Pattern Graph size of the winning selection.
	TPGNodes int
	// PathCost is the optimal ATSP visit cost of the winning selection.
	PathCost int
	// MinSelectionCost is the cheapest exact visit cost over every
	// deduplicated selection the sweep solved (0 when none was solved
	// exactly). The winner is picked by validated test quality, so
	// PathCost can exceed this; the value is identical at any worker
	// count.
	MinSelectionCost int
	// Candidates is the number of rewrite candidates validated.
	Candidates int
	// Degraded reports that a soft budget (see WithBudget) ran out
	// mid-run and the pipeline downgraded somewhere: the test is still
	// simulator-validated complete for the fault list, but no longer
	// proven minimal.
	Degraded bool
	// FromCache reports that the whole result was served from the memo
	// cache (see WithoutCache): an earlier unbudgeted run already solved
	// this exact fault list under the same options. Cached results are
	// byte-identical to the run that produced them.
	FromCache bool
	// DegradedStages names the stages that downgraded, in order:
	// "select" (selection enumeration cut short), "atsp" (exact ordering
	// fell back to heuristics), "assemble" (candidate validation cut
	// short), "shrink" (redundancy elimination stopped early),
	// "fallback" (the bounded fallback search ran out of budget).
	DegradedStages []string
	// StageElapsed is the wall-clock time per pipeline stage — "expand",
	// "select", "atsp", "assemble", "validate", "shrink", "fallback",
	// "finalize" — measured at stage boundaries on the monotonic clock, so
	// the entries are non-overlapping windows that partition the run (a
	// stage absent from the map never ran). Values sum to at most Elapsed.
	StageElapsed map[string]time.Duration
	// Elapsed is the wall-clock generation time.
	Elapsed time.Duration
	// Metrics is the observability snapshot of the run — counters, gauges
	// and flattened histograms keyed by metric name (see the package
	// documentation of internal/obs for the naming scheme). Nil unless the
	// call enabled observation with WithMetrics or WithTrace.
	Metrics map[string]int64
}

// Result is a generated March test.
type Result struct {
	// Test is the generated March test: validated complete for the fault
	// list and non-redundant.
	Test *march.Test
	// Complexity is the number of operations per cell (the "kn" figure).
	Complexity int
	// Models is the parsed fault list.
	Models []fault.Model
	// Instances is the expanded set of fault instances the test detects.
	Instances []fault.Instance
	// Stats reports pipeline effort.
	Stats Stats
}

// Generate synthesises a minimal March test covering the comma-separated
// fault list, e.g. "SAF,TF,ADF" or "CFid<u,0>,CFin" (see package fault for
// the model names).
func Generate(faults string, opts ...Option) (*Result, error) {
	return GenerateCtx(context.Background(), faults, opts...)
}

// GenerateCtx is Generate under a cancellation context. Cancelling ctx (or
// passing its deadline) aborts generation promptly with ErrCanceled or
// ErrDeadlineExceeded. Combine with WithBudget for soft resource limits
// that degrade the result instead of aborting; a downgrade is reported in
// Stats.Degraded / Stats.DegradedStages.
func GenerateCtx(ctx context.Context, faults string, opts ...Option) (*Result, error) {
	models, err := fault.ParseList(faults)
	if err != nil {
		return nil, err
	}
	return GenerateModelsCtx(ctx, models, opts...)
}

// GenerateModels is Generate for an already-built fault model list — in
// particular one containing user-defined models from fault.Custom.
func GenerateModels(models []fault.Model, opts ...Option) (*Result, error) {
	return GenerateModelsCtx(context.Background(), models, opts...)
}

// GenerateModelsCtx is GenerateModels under a cancellation context; see
// GenerateCtx. It is also the library's panic boundary: an internal
// invariant failure anywhere in the pipeline surfaces as an
// *InternalError (matching errors.Is(err, ErrInternal)) carrying the
// stage name and stack, never as a raw panic.
func GenerateModelsCtx(ctx context.Context, models []fault.Model, opts ...Option) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &budget.InternalError{Stage: "generate", Value: r, Stack: debug.Stack()}
		}
	}()
	options := core.DefaultOptions()
	options.Cache = memo.Shared()
	for _, opt := range opts {
		opt(&options)
	}
	if options.Obs != nil {
		// Flush any trace sink bound by WithTrace; a write failure loses
		// the trace, never the result.
		defer func() { _ = options.Obs.Flush() }()
	}
	cres, err := core.GenerateCtx(ctx, models, options)
	if err != nil {
		return nil, err
	}
	return &Result{
		Test:       cres.Test,
		Complexity: cres.Complexity,
		Models:     models,
		Instances:  cres.Instances,
		Stats: Stats{
			Classes:          cres.Classes,
			Selections:       cres.Selections,
			TPGNodes:         cres.Nodes,
			PathCost:         cres.PathCost,
			MinSelectionCost: cres.MinSelectionCost,
			Candidates:       cres.Candidates,
			FromCache:        cres.FromCache,
			Degraded:         cres.Degraded,
			DegradedStages:   cres.DegradedStages,
			StageElapsed:     cres.StageElapsed,
			Elapsed:          cres.Elapsed,
			Metrics:          cres.Metrics,
		},
	}, nil
}
