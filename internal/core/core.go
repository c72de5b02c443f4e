// Package core implements the paper's March test generation pipeline — its
// primary contribution (Sections 4–5):
//
//  1. the target fault list is expanded into fault instances and Basic
//     Fault Effects, grouped into equivalence classes (package fault);
//  2. every economical class selection is enumerated (Section 5) and its
//     patterns are reduced to a Test Pattern Graph (package tpg);
//  3. a minimum-weight open visit of the TPG — an asymmetric TSP with the
//     f.4.4 uniform-start preference expressed as start costs — yields an
//     optimal Global Test Sequence ordering (package atsp);
//  4. the rewrite engine folds the ordered patterns into candidate March
//     tests (package gts);
//  5. candidates are validated against the real fault machines, shrunk to
//     non-redundancy, and the cheapest complete test wins (package sim).
//
// Unlike the exhaustive prior work the paper compares against (implemented
// in package baseline), no search over the space of March tests takes
// place: the only combinatorial step is the small ATSP instance.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/atsp"
	"marchgen/internal/baseline"
	"marchgen/internal/budget"
	"marchgen/internal/gts"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
	"marchgen/internal/sim"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// Options tunes the generator.
type Options struct {
	// Exact selects the exact ATSP solver; when false the layered
	// heuristics are used (faster, possibly suboptimal ordering).
	Exact bool
	// SelectionLimit caps the equivalence-class enumeration (Section 5's
	// E = ∏|Cᵢ| product).
	SelectionLimit int
	// Beam tunes the rewrite engine.
	Beam gts.Options
	// DisableShrink skips the final redundancy-elimination pass (useful
	// for ablation measurements).
	DisableShrink bool
	// DisableEquivalence forces one TPG node per BFE instead of one per
	// equivalence class (the Section 5 ablation).
	DisableEquivalence bool
	// Budget bounds the resources the run may spend; zero means
	// unlimited. Exhaustion degrades the result (see Result.Degraded)
	// instead of failing, unless no valid candidate exists yet.
	Budget budget.Budget
	// Workers bounds the goroutines of the §5 selection sweep: its
	// up-front TPG reductions and its producers (each selection's exact
	// solve and assembly, see sweep.go). 0 uses GOMAXPROCS and a
	// negative count is rejected as a usage error. The sweep is the only
	// parallelism in a run: each exact solve and each fault-simulator
	// evaluation runs on one goroutine, and budgeted runs sweep on one
	// producer. Results are byte-identical at any worker count.
	Workers int
	// Cache, when non-nil, memoises coverage matrices, solved tour
	// fragments, completeness verdicts and whole results under
	// content-addressed keys, so repeated runs over the same fault list
	// are served warm. Budgeted runs bypass it: a budget is a statement
	// about the resources this run may spend, and its degradation
	// semantics must stay reproducible rather than depend on what some
	// earlier run left behind.
	Cache *memo.Cache
	// Obs, when non-nil, observes the run: the pipeline records
	// hierarchical spans and metrics into it (see internal/obs), and the
	// Result carries the flattened metric snapshot. When nil, the run
	// picks up an observability run attached to the context (obs.From)
	// instead; with neither, instrumentation is entirely off and costs a
	// nil check per site.
	Obs *obs.Run
}

// DefaultOptions returns the options used by the published experiments.
func DefaultOptions() Options {
	return Options{Exact: true, SelectionLimit: 64, Beam: gts.DefaultOptions()}
}

// Result describes a generated March test and the pipeline statistics the
// paper reports.
type Result struct {
	// Test is the generated, validated, non-redundant March test.
	Test *march.Test
	// Complexity is Test.Complexity() (the paper's "kn" figure).
	Complexity int
	// Instances is the expanded fault list the test provably detects.
	Instances []fault.Instance
	// Classes is the number of BFE equivalence classes.
	Classes int
	// Selections is the number of class selections enumerated.
	Selections int
	// Nodes is the TPG size of the winning selection.
	Nodes int
	// PathCost is the winning ATSP visit cost (March-operation proxy).
	PathCost int
	// MinSelectionCost is the cheapest exact ATSP visit cost over every
	// deduplicated selection the sweep solved exactly (0 when none was).
	// The winning selection is chosen by validated test quality, not by
	// this figure, so it can exceed MinSelectionCost; the value is
	// identical at any worker count.
	MinSelectionCost int
	// Candidates counts the rewrite candidates validated.
	Candidates int
	// UsedFallback reports that the rewrite pipeline produced no valid
	// candidate and the bounded branch-and-bound fallback supplied the
	// (still provably minimal) test.
	UsedFallback bool
	// Degraded reports that a soft budget ran out mid-run and the
	// pipeline downgraded to a cheaper strategy somewhere: the test is
	// still simulator-validated complete, but no longer proven minimal.
	Degraded bool
	// DegradedStages names the stages that downgraded ("select", "atsp",
	// "assemble", "shrink"), in the order the downgrades happened.
	DegradedStages []string
	// FromCache reports that the whole result was served from the memo
	// cache: the fault list and every relevant option matched an earlier
	// completed run, so the pipeline was skipped entirely. Cached results
	// are byte-identical to the run that produced them.
	FromCache bool
	// StageElapsed is the wall-clock time per pipeline stage ("expand",
	// "select", "atsp", "assemble", "validate", "shrink", "fallback",
	// "finalize"). The windows are measured at stage boundaries and
	// partition the run's wall time: they never overlap, and a degraded
	// or cancelled stage still reports the window it actually occupied.
	StageElapsed map[string]time.Duration
	// Elapsed is the wall-clock generation time.
	Elapsed time.Duration
	// Metrics is the flattened observability snapshot of the run
	// (counters, gauges and histogram summaries by metric name). Nil
	// unless the run was observed (Options.Obs or an obs.Run on the
	// context).
	Metrics map[string]int64
	// Coverage is the final validation report.
	Coverage sim.Coverage
}

// Generate synthesises a minimal March test covering every instance of the
// given fault models.
func Generate(models []fault.Model, opts Options) (*Result, error) {
	return GenerateCtx(context.Background(), models, opts)
}

// GenerateCtx is Generate under a cancellation context and the soft
// resource budget of opts.Budget. Cancelling ctx (or passing its deadline)
// aborts the run with budget.ErrCanceled / budget.ErrDeadlineExceeded.
// Exhausting a soft budget instead degrades the run — exact ATSP ordering
// falls back to the layered heuristics, enumeration and shrinking stop
// early — and the result, still simulator-validated complete, is marked
// Degraded. Only when a budget runs out before any valid candidate exists
// does the run fail, with budget.ErrBudgetExhausted.
func GenerateCtx(ctx context.Context, models []fault.Model, opts Options) (_ *Result, err error) {
	start := time.Now()
	if opts.SelectionLimit <= 0 {
		opts.SelectionLimit = 64
	}
	if opts.Beam.BeamWidth < 0 {
		return nil, fmt.Errorf("core: negative beam width %d: %w", opts.Beam.BeamWidth, budget.ErrUsage)
	}
	opts.Beam = opts.Beam.WithDefaults()
	if err := opts.Budget.Validate(); err != nil {
		return nil, err
	}
	workers, err := budget.ParseWorkers(opts.Workers)
	if err != nil {
		return nil, err
	}
	cache := opts.Cache
	if !opts.Budget.Unlimited() {
		cache = nil // budgeted runs bypass the cache (see Options.Cache)
	}
	// The observability run travels both ways: an explicit Options.Obs is
	// injected into the context (before the meter captures it) so every
	// layer below sees it, and a run already on the context is adopted.
	run := opts.Obs
	if run != nil {
		ctx = obs.Into(ctx, run)
	} else {
		run = obs.From(ctx)
	}
	m := budget.NewMeter(ctx, opts.Budget)
	if err := m.CheckNow(); err != nil {
		return nil, err
	}
	res := &Result{}
	root := run.Start("generate")
	stages := obs.NewStages(run, root, "generate/")
	var memo0 memo.CacheStats
	if run != nil && cache != nil {
		memo0 = cache.Snapshot()
	}
	defer func() {
		stages.Close()
		res.StageElapsed = stages.Elapsed()
		res.Elapsed = time.Since(start)
		if run == nil {
			return
		}
		if cache != nil {
			// Per-run deltas: the cache may be process-wide, so absolute
			// counters would mix in other runs' traffic.
			s := cache.Snapshot()
			run.Counter("memo.hits").Add(int64(s.Hits - memo0.Hits))
			run.Counter("memo.misses").Add(int64(s.Misses - memo0.Misses))
			run.Counter("memo.evictions").Add(int64(s.Evictions - memo0.Evictions))
		}
		run.Counter("generate.elapsed_ns").Add(int64(res.Elapsed))
		run.Counter("budget.atsp_nodes").Add(int64(m.Nodes()))
		root.SetInt("classes", int64(res.Classes)).
			SetInt("selections", int64(res.Selections)).
			SetInt("candidates", int64(res.Candidates))
		if res.Degraded {
			root.SetStr("degraded", strings.Join(res.DegradedStages, ","))
		}
		if res.FromCache {
			root.SetInt("cached", 1)
		}
		switch {
		case err != nil:
			root.SetStr("outcome", "error")
		case res.UsedFallback:
			root.SetStr("outcome", "fallback")
		default:
			root.SetStr("outcome", "ok")
			root.SetInt("complexity", int64(res.Complexity))
		}
		root.End()
		res.Metrics = run.Snapshot()
	}()
	degrade := func(stage string) {
		res.Degraded = true
		for _, s := range res.DegradedStages {
			if s == stage {
				return
			}
		}
		res.DegradedStages = append(res.DegradedStages, stage)
		run.Counter("generate.degraded." + stage).Inc()
	}

	stages.Enter("expand")
	instances := fault.Instances(models)
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: empty fault list")
	}
	faultKey := fault.Key(instances)
	var resKey string
	if cache != nil {
		resKey = resultKey(faultKey, opts)
		if v, ok := cache.Get(resKey); ok {
			run.Counter("memo.result_hits").Inc()
			cached := v.(*cachedResult).result(start, instances)
			res = cached
			return cached, nil
		}
	}
	// One evaluator serves every evaluation of the run: validation,
	// shrink, relaxOrders and the final check all evaluate against this
	// fault list, so its kernel blocks are looked up once, here, after
	// the result memo has had its chance to answer.
	eval, err := sim.NewEvaluator(ctx, instances)
	if err != nil {
		return nil, err
	}
	classes := tpg.Classes(instances)
	if opts.DisableEquivalence {
		classes = splitClasses(classes)
	}
	selections := tpg.Selections(classes, opts.SelectionLimit)
	if err := m.CheckNow(); err != nil {
		return nil, err
	}
	if lim := opts.Budget.Selections; lim > 0 && lim < len(selections) {
		selections = selections[:lim]
		degrade("select")
	}

	res.Instances = instances
	res.Classes = len(classes)
	res.Selections = len(selections)
	// prog is the run's live-progress surface (nil-safe): the sweep
	// position, candidate count and best complexity stream out of here to
	// the job tier's SSE events and the marchgen -progress ticker.
	prog := run.Progress()
	prog.Selection(0, int64(len(selections)))
	gen := &genContext{
		ctx:         ctx,
		eval:        eval,
		faultKey:    faultKey,
		verdict:     map[string]bool{},
		meter:       m,
		cache:       cache,
		verdictHits: run.Counter("memo.verdict_hits"),
	}
	sw := &sweep{
		m:          m,
		selections: selections,
		// Warm-start threading: each producer's previous first optimal
		// ordering seeds its next solve's incumbent.
		order:   orderConfig{exact: opts.Exact},
		opts:    opts,
		cache:   cache,
		workers: workers,
		stages:  stages,
		prog:    prog,
		gen:     gen,
		degrade: degrade,
		acc:     newFoldState(),
	}
	stages.Enter("select")
	sw.reduce(classes)
	if err := sw.run(ctx); err != nil && err != errSweepStop {
		return nil, err
	}
	best := sw.acc.best
	res.Candidates = sw.acc.candidates
	if gen.softStopped {
		degrade("shrink")
	}
	if sw.acc.minSel >= 0 {
		res.MinSelectionCost = sw.acc.minSel
	}
	if best == nil {
		stages.Enter("fallback")
		fb, err := fallbackSearch(m, instances, degrade)
		if err != nil {
			return nil, err
		}
		best = fb
		res.UsedFallback = best != nil
	}
	if best == nil {
		if res.Degraded {
			return nil, fmt.Errorf("core: %w before any valid candidate was found (%d classes)", budget.ErrBudgetExhausted, len(classes))
		}
		if lastErr := sw.acc.lastErr; lastErr != nil {
			return nil, fmt.Errorf("core: no valid March test found for the fault list (%d classes): %w; last pipeline error: %w", len(classes), budget.ErrUnsupportedFault, lastErr)
		}
		return nil, fmt.Errorf("core: no valid March test found for the fault list (%d classes): %w", len(classes), budget.ErrUnsupportedFault)
	}
	stages.Enter("finalize")
	// The sweep is over (possibly degraded): pin the fraction at 1 so
	// late progress readers see completion rather than the last index.
	prog.Selection(int64(res.Selections), int64(res.Selections))
	best = gen.relaxOrders(best)
	if gen.err != nil {
		return nil, gen.err
	}
	cov, err := eval.Evaluate(ctx, best)
	if err != nil {
		return nil, err
	}
	if !cov.Complete() {
		return nil, fmt.Errorf("core: internal error: final test lost coverage")
	}
	res.Test = best
	res.Complexity = best.Complexity()
	res.Nodes = sw.acc.bestNodes
	res.PathCost = sw.acc.bestCost
	res.Coverage = cov
	if cache != nil && !res.Degraded {
		cache.Put(resKey, &cachedResult{
			test:         best.Clone(),
			complexity:   res.Complexity,
			classes:      res.Classes,
			selections:   res.Selections,
			nodes:        res.Nodes,
			pathCost:     res.PathCost,
			minSelCost:   res.MinSelectionCost,
			candidates:   res.Candidates,
			usedFallback: res.UsedFallback,
			coverage:     cov.Clone(),
		})
	}
	return res, nil
}

// resultKey fingerprints a whole generation problem: the canonical fault
// list plus every option that shapes the output. Workers is deliberately
// excluded — results are byte-identical at any worker count — as is the
// budget, because budgeted runs never reach the cache.
func resultKey(faultKey string, opts Options) string {
	return memo.NewFingerprinter("generate").
		Str(faultKey).
		Bool(opts.Exact).
		Int(opts.SelectionLimit).
		Int(opts.Beam.BeamWidth).
		Int(opts.Beam.MaxCandidates).
		Bool(opts.DisableShrink).
		Bool(opts.DisableEquivalence).
		Key()
}

// cachedResult snapshots everything a warm Generate call must reproduce.
// The stored test and coverage are deep-copied on both store and load, so
// callers can mutate their Result freely without corrupting the cache.
type cachedResult struct {
	test         *march.Test
	complexity   int
	classes      int
	selections   int
	nodes        int
	pathCost     int
	minSelCost   int
	candidates   int
	usedFallback bool
	coverage     sim.Coverage
}

func (c *cachedResult) result(start time.Time, instances []fault.Instance) *Result {
	cov := c.coverage.Clone()
	// Rehydrate the per-row instances positionally: a result decoded from
	// the persist layer travels with thin rows (verdict + detecting ops
	// only), and the simulator emits rows in instance order, so row i is
	// instance i. For memory-resident entries this overwrites each row
	// with an identical value.
	if len(cov.Results) == len(instances) {
		for i := range cov.Results {
			cov.Results[i].Instance = instances[i]
		}
	}
	return &Result{
		Test:             c.test.Clone(),
		Complexity:       c.complexity,
		Instances:        instances,
		Classes:          c.classes,
		Selections:       c.selections,
		Nodes:            c.nodes,
		PathCost:         c.pathCost,
		MinSelectionCost: c.minSelCost,
		Candidates:       c.candidates,
		UsedFallback:     c.usedFallback,
		FromCache:        true,
		StageElapsed:     map[string]time.Duration{},
		Elapsed:          time.Since(start),
		Coverage:         cov,
	}
}

// fallbackCap bounds the complexity (operations per cell) of the tests
// the fallback search considers.
const fallbackCap = 12

// fallbackSearch runs the bounded branch-and-bound generator when the
// rewrite grammar cannot realise some pattern of an exotic user-defined
// fault. Retention faults are excluded (the search space has no delay
// elements). The returned error is non-nil only on hard cancellation; a
// fruitless or soft-exhausted search returns (nil, nil) and lets the
// caller report the overall failure.
func fallbackSearch(m *budget.Meter, instances []fault.Instance, degrade func(string)) (*march.Test, error) {
	for _, inst := range instances {
		for _, b := range inst.BFEs {
			for _, in := range b.Pattern.Excite {
				if in.IsWait() {
					return nil, nil
				}
			}
		}
	}
	t, _, err := baseline.BranchBoundMeter(m, instances, fallbackCap)
	if err != nil {
		if budget.IsHard(err) {
			return nil, err
		}
		if errors.Is(err, budget.ErrBudgetExhausted) {
			degrade("fallback")
		}
		return nil, nil
	}
	return t, nil
}

// better orders candidates by complexity, then element count.
func better(cand, best *march.Test) bool {
	if best == nil {
		return true
	}
	if cand.Complexity() != best.Complexity() {
		return cand.Complexity() < best.Complexity()
	}
	return len(cand.Elements) < len(best.Elements)
}

// splitClasses explodes every equivalence class into single-option classes
// (the Section 5 ablation: every BFE must be realised individually).
func splitClasses(classes []tpg.Class) []tpg.Class {
	var out []tpg.Class
	for _, c := range classes {
		for k, opt := range c.Options {
			out = append(out, tpg.Class{
				Label:   fmt.Sprintf("%s#%d", c.Label, k),
				Options: []fsm.Pattern{opt},
			})
		}
	}
	return out
}

// tourFragment is a memoised exact ATSP solve: every optimal open path of
// a TPG weight matrix, reused across Generate calls whose selections
// reduce to the same graph. Treated as immutable once cached.
type tourFragment struct {
	paths [][]int
	cost  int
}

// answers reports whether the fragment can answer the solve of g under
// the start costs starts: it holds at least one path, and every path is
// a permutation of the TPG's nodes whose visit cost is the fragment's
// cost. Fragments cross process boundaries through the durable store,
// so a well-formed but wrong one must read as a miss, not index past
// the node list.
func (f *tourFragment) answers(g *tpg.Graph, starts []int) bool {
	for _, p := range f.paths {
		if !validFragmentPath(p, len(starts)) || visitCost(g, starts, p) != f.cost {
			return false
		}
	}
	return len(f.paths) > 0
}

// nodeSignature fingerprints a reduced TPG node set: selections reducing
// to the same patterns are interchangeable for everything downstream. It
// concatenates the patterns' self-delimiting keys (fsm.Pattern.AppendKey)
// and is only ever an in-memory map key.
func nodeSignature(nodes []tpg.Node) string {
	sig := make([]byte, 0, 8*len(nodes))
	for _, n := range nodes {
		sig = n.Pattern.AppendKey(sig)
	}
	return string(sig)
}

// warmFromPrev lifts the previous selection's ordering onto the current
// instance: patterns both selections share keep their relative order, the
// rest is spliced in by cheapest insertion (adjacent selections differ by
// one class choice, so the patched path is usually optimal or nearly so).
// Returns nil when nothing carries over.
func warmFromPrev(g *tpg.Graph, nodes []tpg.Node, starts []int, prev []fsm.Pattern) []int {
	if len(prev) == 0 {
		return nil
	}
	idx := make(map[string]int, len(nodes))
	key := make([]byte, 0, 16)
	for i, nd := range nodes {
		key = nd.Pattern.AppendKey(key[:0])
		idx[string(key)] = i
	}
	partial := make([]int, 0, len(prev))
	for _, p := range prev {
		key = p.AppendKey(key[:0])
		if i, ok := idx[string(key)]; ok {
			partial = append(partial, i)
		}
	}
	if len(partial) == 0 {
		return nil
	}
	return atsp.CompletePath(atsp.Matrix(g.Weight), starts, partial)
}

// validFragmentPath reports whether a cached path is a permutation of the
// n TPG nodes — the only shape safe to map back onto patterns. Fragments
// cross process (and version) boundaries, so shape is checked here even
// though the codec already rejects torn envelopes.
func validFragmentPath(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// visitCost is the full visit objective of a path: start cost of its
// first node plus the path's arc costs.
func visitCost(g *tpg.Graph, starts []int, p []int) int {
	return starts[p[0]] + atsp.Matrix(g.Weight).PathCost(p)
}

// orderConfig tunes one orderPatterns call.
type orderConfig struct {
	// exact requests the exact solve (false: layered heuristics).
	exact bool
	// warm is the previous selection's pattern ordering, threaded through
	// the sweep as the next solve's incumbent seed.
	warm []fsm.Pattern
}

// orderPatterns solves the constrained open-path ATSP over the TPG and
// returns the pattern orderings worth assembling: every optimal visit (the
// rewrite engine folds different optimal orders into March tests of
// different quality) plus each one reversed. In heuristic mode a single
// near-optimal path and its reverse are returned. When the exact solvers
// exhaust the meter's node budget the ordering degrades to the heuristic
// path automatically and degrade("atsp") records the downgrade. The exact
// solve runs on the calling goroutine, warm-started from cfg.warm, and,
// with a non-nil cache, is memoised under the weight-matrix fingerprint:
// a cached tour fragment that answers the instance replaces the solve,
// and one that does not is re-solved and overwritten. The third result
// reports whether the returned cost is an exact optimum (false after a
// heuristic downgrade). Whatever the config, the returned orderings and
// cost are byte-identical — only solver effort varies.
func orderPatterns(m *budget.Meter, nodes []tpg.Node, cfg orderConfig, cache *memo.Cache, degrade func(string)) ([][]fsm.Pattern, int, bool, error) {
	g := tpg.New(nodes)
	if len(nodes) == 1 {
		return [][]fsm.Pattern{{nodes[0].Pattern}}, g.StartCost(0) + g.NodeCost(0), true, nil
	}
	starts := make([]int, len(nodes))
	total := 0
	for b := range nodes {
		starts[b] = g.StartCost(b)
		total += g.NodeCost(b)
	}
	var paths [][]int
	var cost int
	exact, exactCost := cfg.exact, false
	if exact {
		var key string
		if cache != nil {
			f := memo.NewFingerprinter("tour")
			for _, row := range g.Weight {
				f.Ints(row)
			}
			f.Ints(starts)
			key = f.Key()
			if v, ok := cache.Get(key); ok {
				if frag := v.(*tourFragment); frag.answers(g, starts) {
					obs.From(m.Context()).Counter("memo.tour_hits").Inc()
					paths, cost, exactCost = frag.paths, frag.cost, true
				}
			}
		}
		if paths == nil {
			var err error
			paths, cost, err = atsp.OptimalPathsOpt(m, atsp.Matrix(g.Weight), starts, 8, atsp.PathOptions{
				PreferBB: true,
				WarmPath: warmFromPrev(g, nodes, starts, cfg.warm),
			})
			switch {
			case err == nil:
				exactCost = true
				if cache != nil {
					cache.Put(key, &tourFragment{paths: paths, cost: cost})
				}
			case errors.Is(err, budget.ErrBudgetExhausted):
				degrade("atsp")
				exact = false
			default:
				return nil, 0, false, err
			}
		}
	}
	if !exact {
		path, c, err := atsp.PathOpt(m, atsp.Matrix(g.Weight), starts, false, atsp.PathOptions{})
		if err != nil {
			return nil, 0, false, err
		}
		paths, cost = [][]int{path}, c
	}
	var orders [][]fsm.Pattern
	for _, path := range paths {
		forward := make([]fsm.Pattern, len(path))
		backward := make([]fsm.Pattern, len(path))
		for k, v := range path {
			forward[k] = nodes[v].Pattern
			backward[len(path)-1-k] = nodes[v].Pattern
		}
		orders = append(orders, forward, backward)
	}
	return orders, cost + total, exactCost, nil
}

// genContext memoises completeness verdicts by test signature: the same
// candidate recurs across orderings, selections and shrink steps. It also
// carries the run's budget meter: a hard cancellation observed during
// validation latches into err (and fails the pending verdict), while the
// soft deadline merely stops the shrink loop early via softStopped.
type genContext struct {
	ctx context.Context
	// eval evaluates candidates against the run's fault list.
	eval *sim.Evaluator
	// faultKey is the canonical fault-list key; shared verdict-cache
	// entries are scoped to it so verdicts for different fault lists can
	// never alias.
	faultKey string
	verdict  map[string]bool
	meter    *budget.Meter
	// cache, when non-nil, shares completeness verdicts across Generate
	// calls (the run-local verdict map still deduplicates within a run).
	cache *memo.Cache
	// verdictHits counts shared-cache verdict hits in the run's metrics
	// (nil when the run is unobserved — the counter is nil-safe).
	verdictHits *obs.Counter
	// err is the first hard-cancellation error observed mid-validation.
	err error
	// softStopped records that shrinking stopped early on the soft
	// deadline (the result is then valid but possibly still redundant).
	softStopped bool
}

func (g *genContext) complete(t *march.Test) bool {
	if g.err != nil {
		return false
	}
	if err := g.meter.Check(); err != nil {
		g.err = err
		return false
	}
	if t == nil || t.Validate() != nil {
		return false
	}
	sig := t.String()
	if v, ok := g.verdict[sig]; ok {
		return v
	}
	var key string
	if g.cache != nil {
		key = memo.NewFingerprinter("verdict").Str(g.faultKey).Str(sig).Key()
		if v, ok := g.cache.Get(key); ok {
			g.verdictHits.Inc()
			g.verdict[sig] = v.(bool)
			return v.(bool)
		}
	}
	cov, err := g.eval.Evaluate(g.ctx, t)
	if err != nil && budget.IsHard(err) {
		g.err = err
		return false
	}
	v := err == nil && cov.Complete()
	g.verdict[sig] = v
	if g.cache != nil && err == nil {
		g.cache.Put(key, v)
	}
	return v
}

// orderSignature fingerprints a pattern ordering for deduplication, as
// nodeSignature does a node set.
func orderSignature(patterns []fsm.Pattern) string {
	sig := make([]byte, 0, 8*len(patterns))
	for _, p := range patterns {
		sig = p.AppendKey(sig)
	}
	return string(sig)
}

// shrink removes redundant operations: any operation (or delay element)
// whose removal keeps the test complete is dropped, repeatedly, so the
// returned test is non-redundant by construction — the property the
// paper's Set Covering check certifies.
func (g *genContext) shrink(t *march.Test) *march.Test {
	cur := t
	for {
		if g.err != nil {
			return cur
		}
		if g.meter.SoftExpired() {
			g.softStopped = true
			return cur
		}
		improved := false
	scan:
		for e := 0; e < len(cur.Elements); e++ {
			if cur.Elements[e].Delay {
				cand := dropDelay(cur, e)
				if g.complete(cand) {
					cur, improved = cand, true
					break scan
				}
				continue
			}
			for o := 0; o < len(cur.Elements[e].Ops); o++ {
				cand := cur.WithoutOp(e, o)
				if cand != nil && g.complete(cand) {
					cur, improved = cand, true
					break scan
				}
			}
		}
		if !improved {
			return cur
		}
	}
}

func dropDelay(t *march.Test, e int) *march.Test {
	c := t.Clone()
	c.Elements = append(c.Elements[:e], c.Elements[e+1:]...)
	return c
}

// relaxOrders widens ⇑/⇓ constraints to ⇕ where coverage allows, matching
// the conventional presentation of known March tests (Rule 5: elements
// whose order is irrelevant carry the ⇕ symbol).
func (g *genContext) relaxOrders(t *march.Test) *march.Test {
	cur := t.Clone()
	for e := range cur.Elements {
		if cur.Elements[e].Delay || cur.Elements[e].Order == march.Any {
			continue
		}
		saved := cur.Elements[e].Order
		cur.Elements[e].Order = march.Any
		if !g.complete(cur) {
			cur.Elements[e].Order = saved
		}
	}
	return cur
}
