package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/atsp"
	"marchgen/internal/budget"
	"marchgen/internal/cover"
	"marchgen/internal/gts"
	"marchgen/internal/sim"
	"marchgen/internal/simd"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one input share an id.
type span struct {
	name       string
	id         string
	parent     int // index into the recorder's spans; -1 for a root
	start, end time.Duration
}

// recorder keeps spans in memory for the whole run; the replay is
// single-threaded, so the open-span stack gives each span its parent.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name, id string) int {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: time.Since(r.t0)})
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	r.spans[i].end = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

// do records f as one span.
func (r *recorder) do(name, id string, f func()) {
	i := r.begin(name, id)
	f()
	r.end(i)
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.name] += s.end - s.start - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerCounts is the work the replay saw in each layer.
type layerCounts struct {
	inputs       int // fault lists replayed
	instances    int
	selections   int
	distinct     int // distinct reduced TPGs
	solves       int
	orderings    int
	gtsCalls     int
	candidates   int
	candComplete int // candidates the simulator found complete
	gtsAlloc     uint64
	evals        int
	complete     int
	lutHits      int
	lutCompiles  int
	coverCalls   int
}

// replayLayers drives the layers for one fault list the way the core
// pipeline does — expand, classes and selections, reduce, exact ordering,
// assembly of every distinct ordering, simulation of every candidate —
// with one span per call, then audits the generated test with
// cover.RemovableOps. It does not use the memo cache, so every call does
// its full work.
func replayLayers(ctx context.Context, rec *recorder, c *layerCounts, id, faults string, result *march.Test) error {
	workers := runtime.GOMAXPROCS(0)
	root := rec.begin("replay", id)
	defer rec.end(root)
	c.inputs++
	var instances []fault.Instance
	var err error
	rec.do("fault", id, func() {
		var models []fault.Model
		if models, err = fault.ParseList(faults); err == nil {
			instances = fault.Instances(models)
		}
	})
	if err != nil {
		return err
	}
	c.instances += len(instances)
	var classes []tpg.Class
	var sels []tpg.Selection
	rec.do("tpg", id, func() {
		classes = tpg.Classes(instances)
		sels = tpg.Selections(classes, 64)
	})
	c.selections += len(sels)
	meter := budget.NewMeter(ctx, budget.Budget{})
	seenNodes := map[string]bool{}
	for _, sel := range sels {
		var nodes []tpg.Node
		var g *tpg.Graph
		rec.do("tpg", id, func() {
			nodes = tpg.Reduce(classes, sel)
			g = tpg.New(nodes)
		})
		sig := patternSig(nodes, func(n tpg.Node) fsm.Pattern { return n.Pattern })
		if seenNodes[sig] {
			continue
		}
		seenNodes[sig] = true
		c.distinct++
		orders := [][]fsm.Pattern{{nodes[0].Pattern}}
		if len(nodes) > 1 {
			starts := make([]int, len(nodes))
			for b := range nodes {
				starts[b] = g.StartCost(b)
			}
			var paths [][]int
			rec.do("atsp", id, func() {
				paths, _, err = atsp.OptimalPathsOpt(meter, atsp.Matrix(g.Weight), starts, 8,
					atsp.PathOptions{Workers: workers, PreferBB: true})
			})
			if err != nil {
				return fmt.Errorf("atsp on %s: %w", faults, err)
			}
			c.solves++
			orders = orders[:0]
			for _, path := range paths {
				fwd := make([]fsm.Pattern, len(path))
				bwd := make([]fsm.Pattern, len(path))
				for k, v := range path {
					fwd[k] = nodes[v].Pattern
					bwd[len(path)-1-k] = nodes[v].Pattern
				}
				orders = append(orders, fwd, bwd)
			}
		}
		seenOrder := map[string]bool{}
		for _, ord := range orders {
			sig := patternSig(ord, func(p fsm.Pattern) fsm.Pattern { return p })
			if seenOrder[sig] {
				continue
			}
			seenOrder[sig] = true
			c.orderings++
			var cands []*march.Test
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			rec.do("gts", id, func() { cands, err = gts.Assemble(ord, gts.DefaultOptions()) })
			runtime.ReadMemStats(&m1)
			c.gtsAlloc += m1.TotalAlloc - m0.TotalAlloc
			c.gtsCalls++
			if err != nil {
				continue // the core pipeline skips an ordering the grammar cannot fold
			}
			c.candidates += len(cands)
			for _, cand := range cands {
				if cand.Validate() != nil {
					continue
				}
				var cov sim.Coverage
				rec.do("sim", id, func() { cov, err = sim.EvaluateWorkers(ctx, cand, instances, workers) })
				c.evals++
				if err == nil && cov.Complete() {
					c.complete++
					c.candComplete++
				}
			}
		}
	}
	var hits, compiles int
	rec.do("simd", id, func() { _, hits, compiles, err = simd.CompiledBlocks(instances) })
	if err != nil {
		return err
	}
	c.lutHits += hits
	c.lutCompiles += compiles
	rec.do("cover", id, func() { _, err = cover.RemovableOps(result, instances) })
	c.coverCalls++
	return err
}

// replayVerify drives the two layers behind a verify request: simulation
// of the test, then the coverage-matrix analysis.
func replayVerify(ctx context.Context, rec *recorder, c *layerCounts, id string, t *march.Test, faults string) error {
	root := rec.begin("replay", id)
	defer rec.end(root)
	c.inputs++
	models, err := fault.ParseList(faults)
	if err != nil {
		return err
	}
	instances := fault.Instances(models)
	workers := runtime.GOMAXPROCS(0)
	var cov sim.Coverage
	rec.do("sim", id, func() { cov, err = sim.EvaluateWorkers(ctx, t, instances, workers) })
	if err != nil {
		return err
	}
	c.evals++
	if cov.Complete() {
		c.complete++
		rec.do("cover", id, func() { _, err = cover.AnalyzeWorkers(ctx, t, instances, workers, nil) })
		c.coverCalls++
	}
	return err
}

func patternSig[T any](xs []T, pat func(T) fsm.Pattern) string {
	var sb strings.Builder
	for _, x := range xs {
		sb.WriteString(pat(x).String())
		sb.WriteByte(';')
	}
	return sb.String()
}
