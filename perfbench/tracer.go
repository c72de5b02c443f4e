package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"marchgen"
)

// layers are the span names that count as layer time in the cross-check.
var layers = []string{"fault", "tpg", "atsp", "gts", "sim", "simd", "cover"}

// stages are the core pipeline stages reported from Stats.StageElapsed.
var stages = []string{"expand", "select", "atsp", "assemble", "validate", "shrink", "finalize"}

// tracer collects the traced run: the benchmark's own spans around layer
// calls, and the program's own stage times and counters for the same
// inputs (Stats.StageElapsed and the WithMetrics snapshot).
type tracer struct {
	rec      *recorder
	counts   layerCounts
	gens     int
	elapsed  time.Duration
	stages   map[string]time.Duration
	counters map[string]int64
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), stages: map[string]time.Duration{}, counters: map[string]int64{}}
}

// observe records a traced generation's own statistics and replays its
// input layer by layer.
func (t *tracer) observe(ctx context.Context, id, faults string, res *marchgen.Result) error {
	t.gens++
	t.elapsed += res.Stats.Elapsed
	for k, v := range res.Stats.StageElapsed {
		t.stages[k] += v
	}
	for k, v := range res.Stats.Metrics {
		t.counters[k] += v
	}
	return replayLayers(ctx, t.rec, &t.counts, id, faults, res.Test)
}

// serveLayer holds the serve-side per-layer figures; zero on the library
// workloads, where no request crosses the serve layer.
type serveLayer struct {
	overheadP50, overheadP99 tail
	fromCache, coalesced     float64
	shed                     float64
	lagP99                   tail
	// memoHits and memoMisses, when set, replace the per-call memo
	// counters (the server's cache is not visible per call).
	memoHits, memoMisses, memoEvictions int64
	fromServer                          bool
}

func (t *tracer) selfMS() map[string]float64 {
	out := map[string]float64{}
	for k, v := range selfTimes(t.rec.spans) {
		out[k] = msOf(v)
	}
	return out
}

// gtsShare is gts self time over all layer self time in the replay, and
// assembleShare the assemble stage over the program's own elapsed time.
func (t *tracer) shares() (gtsShare, assembleShare float64) {
	self := t.selfMS()
	total := 0.0
	for _, l := range layers {
		total += self[l]
	}
	return ratio(self["gts"], total), ratio(float64(t.stages["assemble"]), float64(t.elapsed))
}

func (t *tracer) crossCheck() []string {
	g, a := t.shares()
	return []string{fmt.Sprintf("cross-check: gts share of replayed layer time %.3f; assemble share of Stats.Elapsed %.3f (%d generations, %d replays)",
		g, a, t.gens, t.counts.inputs)}
}

// metrics derives the per-layer metrics. Counts and self times are means
// per replayed input; overheadPct is the traced run's gen_per_s loss.
func (t *tracer) metrics(sv serveLayer, overheadPct float64) []metric {
	c := t.counts
	n := float64(c.inputs)
	gens := float64(t.gens)
	self := t.selfMS()
	per := func(name string, v float64) metric {
		return metric{name, "count/in", ratio(v, n), fmt.Sprintf("per replayed input, n=%d", c.inputs)}
	}
	selfM := func(layer string) metric {
		return metric{layer + ".self_ms", "ms/in", ratio(self[layer], n), fmt.Sprintf("mean self time per replayed input, n=%d", c.inputs)}
	}
	var busy int64
	for k, v := range t.counters {
		if strings.HasPrefix(k, "pool.worker.") && strings.HasSuffix(k, ".busy_ns") {
			busy += v
		}
	}
	atspNodes := t.counters["atsp.bb.expanded"] + t.counters["atsp.enum.nodes"] + t.counters["atsp.heldkarp.states"]
	hits, misses, evictions := t.counters["memo.hits"], t.counters["memo.misses"], t.counters["memo.evictions"]
	memoNote := "per-call WithMetrics deltas"
	if sv.fromServer {
		hits, misses, evictions = sv.memoHits, sv.memoMisses, sv.memoEvictions
		memoNote = "server /metrics deltas over both phases"
	}
	gtsShare, asmShare := t.shares()
	out := []metric{
		selfM("gts"),
		per("gts.calls", float64(c.gtsCalls)),
		per("gts.candidates", float64(c.candidates)),
		{"gts.valid_ratio", "ratio", ratio(float64(c.candComplete), float64(c.candidates)), "complete candidates per candidate"},
		{"gts.alloc_mb", "MB/in", ratio(float64(c.gtsAlloc)/1e6, n), "allocated inside gts.Assemble per replayed input"},
		selfM("atsp"),
		per("atsp.solves", float64(c.solves)),
		{"atsp.nodes", "count/gen", ratio(float64(atspNodes), gens), "program counters atsp.bb.expanded + atsp.enum.nodes + atsp.heldkarp.states per generation"},
		per("atsp.orderings", float64(c.orderings)),
		selfM("tpg"),
		per("tpg.selections", float64(c.selections)),
		{"tpg.distinct_ratio", "ratio", ratio(float64(c.distinct), float64(c.selections)), "distinct reduced TPGs per selection"},
		selfM("fault"),
		per("fault.instances", float64(c.instances)),
		selfM("sim"),
		per("sim.evals", float64(c.evals)),
		{"sim.complete_ratio", "ratio", ratio(float64(c.complete), float64(c.evals)), "complete evaluations per evaluation"},
		{"simd.lut_hit_ratio", "ratio", ratio(float64(c.lutHits), float64(c.lutHits+c.lutCompiles)), "simd.CompiledBlocks hits per block"},
		selfM("cover"),
		per("cover.calls", float64(c.coverCalls)),
	}
	for _, s := range stages {
		out = append(out, metric{"core.stage_ms." + s, "ms/gen", ratio(msOf(t.stages[s]), gens), fmt.Sprintf("Stats.StageElapsed per generation, n=%d", t.gens)})
	}
	out = append(out,
		metric{"pool.utilization", "ratio", ratio(float64(busy), float64(runtime.GOMAXPROCS(0))*float64(t.elapsed)), "pool busy time over workers × Stats.Elapsed"},
		metric{"memo.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), memoNote},
		metric{"memo.evictions", "count", float64(evictions), memoNote},
		metric{"serve.overhead_p50_ms", "ms", sv.overheadP50.Value, tailNote(sv.overheadP50)},
		metric{"serve.overhead_p99_ms", "ms", sv.overheadP99.Value, tailNote(sv.overheadP99)},
		metric{"serve.from_cache_ratio", "ratio", sv.fromCache, "generate 200s with from_cache"},
		metric{"serve.coalesced_ratio", "ratio", sv.coalesced, "generate 200s with coalesced"},
		metric{"serve.shed", "count", sv.shed, "serve.shed delta from /metrics"},
		metric{"loadgen.lag_p99_ms", "ms", sv.lagP99.Value, tailNote(sv.lagP99)},
		metric{"crosscheck.gts_layer_share", "ratio", gtsShare, "gts self time over replayed layer time"},
		metric{"crosscheck.assemble_stage_share", "ratio", asmShare, "assemble stage over Stats.Elapsed"},
		metric{"trace.overhead_pct", "%", overheadPct, "gen_per_s lost with tracing on"},
	)
	return out
}

func tailNote(t tail) string {
	if t.N == 0 {
		return "no requests"
	}
	return fmt.Sprintf("p%g of n=%d", t.Pct, t.N)
}

// overheadPct is how much gen_per_s the traced run lost against the
// untraced one, in percent.
func overheadPct(untraced, traced []metric) float64 {
	get := func(ms []metric) float64 {
		for _, m := range ms {
			if m.Name == "gen_per_s" {
				return m.Value
			}
		}
		return 0
	}
	u := get(untraced)
	return 100 * ratio(u-get(traced), u)
}
