// The §5 selection sweep, split into produce and fold.
//
// The paper solves one ATSP per class selection and keeps the best test,
// so each selection's work is independent and only keep-the-best depends
// on order. The sweep is split along that line:
//
//   - produce(i) is selection i's selection-local work: solve the exact
//     ATSP of its reduced TPG (warm-started from the producer's previous
//     solve) and assemble the rewrite candidates of every distinct
//     optimal ordering. It reads nothing the fold writes;
//   - fold(u) replays the order-dependent steps over produce's outcomes
//     in ascending selection order: node-set deduplication, the
//     candidate count and budget, the incumbent prune, simulator
//     validation, shrinking and better().
//
// The candidate stream produce hands the fold is a pure function of the
// selection: the exact solver's strict-prune + lexLess offer rule makes
// its returned tour set warm/cold-invariant (see internal/atsp), so which
// previous solve warmed a producer changes solver effort, never the
// patterns, and assembly is deterministic in the patterns. Everything
// whose outcome depends on global sweep state — the incumbent prune,
// whose threshold tracks the best test of all earlier selections, and
// the first-seen tie-break in better() — runs in the fold alone, on
// exactly the sequence of candidates a sequential loop would see. That
// is why the same produce and fold serve three sweeps with byte-identical
// output: inline, fanned out over the worker pool (pool.Stream), and
// distributed across replicas (shard.go: shards produce, the coordinator
// folds).
//
// One-worker and budgeted runs produce inline: produce(i) and fold(i)
// alternate on the caller's goroutine, assembly happens ordering by
// ordering inside the fold, and traces, warm chains, node counts and
// degrade points are those of a plain sequential loop. A budget is
// spent in sweep order — which selection's solve exhausts the node
// budget, where the candidate budget or soft deadline cuts the sweep —
// so a budgeted sweep can only run in that order.
package core

import (
	"context"
	"errors"
	"sync"

	"marchgen/fsm"
	"marchgen/internal/budget"
	"marchgen/internal/gts"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
	"marchgen/internal/pool"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// errSweepStop ends a sweep early without failing the run: the soft
// deadline or the candidate budget ran out, and the fold keeps what it
// has.
var errSweepStop = errors.New("core: sweep stopped")

// sweep is one run of the selection sweep: produce's inputs, and the
// fold's state, which only the caller's goroutine touches.
type sweep struct {
	m          *budget.Meter
	selections []tpg.Selection
	// nodes[i] and sigs[i] are selection i's reduced TPG and its node-set
	// signature; nodes[i] is nil when produce has nothing to do for i (a
	// joint-pruned subtree, or a node set an earlier selection of the
	// range already reduces to).
	nodes [][]tpg.Node
	sigs  []string
	order orderConfig
	// opts supplies the beam options to produce, and DisableShrink and
	// the candidate budget to the fold.
	opts  Options
	cache *memo.Cache
	// workers is the producer count; pooled reports that producers run
	// off the caller's goroutine (workers > 1, an unlimited budget and
	// more than one selection to solve).
	workers int
	pooled  bool
	// warm[w] is producer w's warm chain: the first optimal ordering of
	// the last selection it solved.
	warm [][]fsm.Pattern

	stages *obs.Stages
	prog   *obs.Progress
	// clockMu guards waiting and solved, the pooled stage clock (see
	// await).
	clockMu sync.Mutex
	waiting int
	solved  []bool

	gen     *genContext
	degrade func(string)
	acc     foldState
}

// foldState is what the fold accumulates over the sweep.
type foldState struct {
	seen                map[string]bool
	selCost             map[string]int // exact visit cost per node set
	minSel              int            // -1: nothing solved exactly yet
	candidates          int
	best                *march.Test
	bestNodes, bestCost int
	lastErr             error
}

func newFoldState() foldState {
	return foldState{seen: map[string]bool{}, selCost: map[string]int{}, minSel: -1}
}

// selection is produce's outcome for one selection index.
type selection struct {
	// stop: the soft deadline passed before this selection.
	stop bool
	// sig is the node-set signature; "" when produce had nothing to do.
	sig       string
	nodes     int
	cost      int
	exactCost bool
	// degraded: the exact solve ran out of node budget and the ordering
	// fell back to the heuristic path.
	degraded bool
	// err is a soft solve failure: the selection yields no candidates.
	err    error
	orders []ordering
}

// ordering is one distinct optimal pattern ordering and its assembled
// candidates.
type ordering struct {
	patterns  []fsm.Pattern
	assembled bool
	cands     []*march.Test
	err       error // soft assembly failure
}

// assemble folds the ordering's patterns into candidate March tests,
// once. Only a hard error is returned; a soft one is kept in o.err.
func (o *ordering) assemble(m *budget.Meter, beam gts.Options) error {
	if o.assembled {
		return nil
	}
	o.assembled = true
	o.cands, o.err = gts.AssembleMeter(m, o.patterns, beam)
	if o.err != nil && budget.IsHard(o.err) {
		return o.err
	}
	return nil
}

// reduce computes the reduced TPG of every selection in [lo, hi) that
// produce must solve, on s.workers goroutines: skip marks joint-pruned
// subtrees (nil: none), and a node set an earlier selection of the range
// reduces to is left out.
func (s *sweep) reduce(classes []tpg.Class, lo, hi int, skip []bool) {
	type reduced struct {
		nodes []tpg.Node
		sig   string
	}
	rs, _ := pool.Map(s.workers, hi-lo, func(j int) (reduced, error) {
		if skip != nil && skip[lo+j] {
			return reduced{}, nil
		}
		nodes := tpg.Reduce(classes, s.selections[lo+j])
		return reduced{nodes, nodeSignature(nodes)}, nil
	})
	s.nodes = make([][]tpg.Node, len(s.selections))
	s.sigs = make([]string, len(s.selections))
	first := map[string]bool{}
	for j, r := range rs {
		if r.nodes == nil || first[r.sig] {
			continue // different selections can reduce to the same TPG
		}
		first[r.sig] = true
		s.nodes[lo+j], s.sigs[lo+j] = r.nodes, r.sig
	}
}

// run streams [lo, hi) through produce and consume: on s.workers
// producers when pooled, else inline. A pooled stream covers only the
// selections produce solves — the fold has nothing to do for the rest —
// so the 2×workers window spans real work. Solves run on the caller's
// worker count inline and on one worker each when pooled: the sweep then
// owns the parallelism.
func (s *sweep) run(ctx context.Context, lo, hi int, consume func(u *selection) error) error {
	var solves, units []int
	for i := lo; i < hi; i++ {
		units = append(units, i)
		if s.nodes[i] != nil {
			solves = append(solves, i)
		}
	}
	s.pooled = s.workers > 1 && s.m.Budget().Unlimited() && len(solves) > 1
	workers := 1
	if s.pooled {
		workers, units = s.workers, solves
		s.order.workers = 1
		s.solved = make([]bool, len(s.selections))
		s.await(units[0])
	}
	s.warm = make([][]fsm.Pattern, workers)
	return pool.Stream(ctx, workers, len(units),
		func(w, j int) (*selection, error) { return s.produce(w, units[j]) },
		func(j int, u *selection) error {
			if !s.pooled {
				return consume(u)
			}
			s.enterSelect(units[j])
			err := consume(u)
			if err == nil && j+1 < len(units) {
				s.await(units[j+1])
			}
			return err
		})
}

// produce runs selection i's selection-local work on producer w. A
// pooled producer assembles every ordering itself; inline, assembly is
// left to the fold, ordering by ordering, as a sequential loop does it.
func (s *sweep) produce(w, i int) (*selection, error) {
	if !s.pooled {
		s.enterSelect(i)
	}
	if err := s.m.CheckNow(); err != nil {
		return nil, err
	}
	if s.m.SoftExpired() {
		return &selection{stop: true}, nil
	}
	nodes := s.nodes[i]
	if nodes == nil {
		return &selection{}, nil
	}
	u := &selection{sig: s.sigs[i], nodes: len(nodes)}
	if !s.pooled {
		s.stages.Enter("atsp")
	}
	cfg := s.order
	cfg.warm = s.warm[w]
	patterns, cost, exactCost, err := orderPatterns(s.m, nodes, cfg, s.cache, func(string) { u.degraded = true })
	if s.pooled {
		s.markSolved(i)
	}
	if err != nil {
		if budget.IsHard(err) {
			return nil, err
		}
		u.err = err
		return u, nil
	}
	if cfg.preferBB {
		s.warm[w] = patterns[0]
	}
	u.cost, u.exactCost = cost, exactCost
	seenOrder := map[string]bool{}
	for _, p := range patterns {
		if sig := orderSignature(p); !seenOrder[sig] {
			seenOrder[sig] = true
			u.orders = append(u.orders, ordering{patterns: p})
		}
	}
	if s.pooled {
		for k := range u.orders {
			if err := u.orders[k].assemble(s.m, s.opts.Beam); err != nil {
				return nil, err
			}
		}
	}
	return u, nil
}

// enterSelect opens selection i's select stage. Each select span carries
// the sweep fraction in parts per million: successive spans of one run
// are monotone, an invariant tracecheck validates on recorded traces.
func (s *sweep) enterSelect(i int) {
	s.stages.Enter("select").SetInt("progress_ppm", int64(i)*1_000_000/int64(len(s.selections)))
	s.prog.Selection(int64(i), int64(len(s.selections)))
}

// fold replays the order-dependent steps over one selection's outcome.
// It returns errSweepStop when a budget ends the sweep, and a hard error
// from validation as is.
func (s *sweep) fold(u *selection) error {
	if u.stop {
		s.degrade("select")
		return errSweepStop
	}
	if u.degraded {
		s.degrade("atsp")
	}
	acc := &s.acc
	if u.sig == "" || acc.seen[u.sig] {
		return nil
	}
	acc.seen[u.sig] = true
	if u.err != nil {
		acc.lastErr = u.err
		return nil
	}
	if u.exactCost {
		acc.selCost[u.sig] = u.cost
		if acc.minSel < 0 || u.cost < acc.minSel {
			acc.minSel = u.cost
		}
	}
	for k := range u.orders {
		o := &u.orders[k]
		if !o.assembled {
			s.stages.Enter("assemble")
			if err := o.assemble(s.m, s.opts.Beam); err != nil {
				return err
			}
		}
		if o.err != nil {
			acc.lastErr = o.err
			continue
		}
		for _, cand := range o.cands {
			if lim := s.opts.Budget.Candidates; lim > 0 && acc.candidates >= lim {
				s.degrade("assemble")
				return errSweepStop
			}
			acc.candidates++
			s.prog.Candidates(int64(acc.candidates))
			if acc.best != nil && cand.Complexity() >= acc.best.Complexity()+2 {
				continue // too long to beat the incumbent even after shrinking
			}
			s.stages.Enter("validate")
			ok := s.gen.complete(cand)
			if s.gen.err != nil {
				return s.gen.err
			}
			if !ok {
				continue
			}
			if !s.opts.DisableShrink {
				s.stages.Enter("shrink")
				cand = s.gen.shrink(cand)
				if s.gen.err != nil {
					return s.gen.err
				}
			}
			if better(cand, acc.best) {
				acc.best = cand
				acc.bestNodes, acc.bestCost = u.nodes, u.cost
				s.prog.Best(int64(cand.Complexity()))
			}
		}
		o.cands = nil // folded: release the candidates
	}
	return nil
}

// await is the pooled stage clock. The fold's only idle time is waiting
// for unit i, the next one in order; that wait is charged to the stage
// i's producer is in — "atsp" until its solve returns, "assemble" after —
// so Stats.StageElapsed still partitions the caller's wall time.
func (s *sweep) await(i int) {
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	s.waiting = i
	if s.solved[i] {
		s.stages.Enter("assemble")
	} else {
		s.stages.Enter("atsp")
	}
}

// markSolved records that unit i's solve returned, moving a fold that
// is waiting on i into the assemble stage. The fold cannot leave that
// wait before i's producer returns, so stage boundaries stay sequential
// even though this one is crossed on the producer's goroutine.
func (s *sweep) markSolved(i int) {
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	s.solved[i] = true
	if s.waiting == i {
		s.stages.Enter("assemble")
	}
}
