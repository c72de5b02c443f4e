// Cross-process distribution of the §5 selection sweep.
//
// Distribution is the produce/fold split of sweep.go stretched across
// processes: a shard runs produce over its contiguous slice of the
// selection index space (with a shard-local warm chain) and ships back
// the ordered candidate stream — per selection, the node signature, node
// count, exact visit cost and every assembled candidate in March
// notation. The coordinator parses the concatenated streams and runs the
// fold over them in ascending selection order, so global node-set
// deduplication, the candidate count, the incumbent prune, validation,
// shrinking and better() all run in one place, on exactly the candidate
// sequence the local sweep would fold. The byte-identity argument is the
// one in sweep.go; an earlier version that let each shard prune and
// validate against its own local incumbent validated a superset of the
// sequential candidates and could surface equal-complexity tests the
// sequential prune had dropped.
//
// Distribution is offered only where that argument holds wholesale:
// exact solves, warm mode, unlimited budget, no selection truncation.
// Everything else — and every distribution failure — runs the local
// sweep. The distributor is infrastructure, never a correctness
// dependency.
package core

import (
	"context"
	"fmt"
	"sync"

	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// SweepShard is one contiguous slice [Lo,Hi) of the §5 selection index
// space.
type SweepShard struct {
	// Lo is the first selection index of the shard (inclusive).
	Lo int `json:"lo"`
	// Hi is the end of the shard (exclusive).
	Hi int `json:"hi"`
}

// ShardSelection is one deduplicated selection's solved output within a
// shard: the inputs the coordinator's replay needs, in selection order.
type ShardSelection struct {
	// Sig is the node-set signature (the sweep's deduplication key).
	Sig string `json:"sig"`
	// Nodes is the TPG node count after reduction.
	Nodes int `json:"nodes"`
	// Cost is the ATSP visit cost of the solved ordering; ExactCost
	// reports whether it is the proven optimum (it feeds
	// MinSelectionCost only when true).
	Cost      int  `json:"cost"`
	ExactCost bool `json:"exact_cost,omitempty"`
	// Candidates is the assembled candidate stream for this selection in
	// March notation, ordering-deduplicated, in assembly order.
	Candidates []string `json:"candidates,omitempty"`
}

// ShardOutcome is one executed sweep shard's report: the candidate
// streams of its selections, shard-locally deduplicated, in ascending
// selection order.
type ShardOutcome struct {
	// Shard echoes the executed index range.
	Shard SweepShard `json:"shard"`
	// Selections holds one entry per first-seen node signature.
	Selections []ShardSelection `json:"selections,omitempty"`
}

// SweepDistributor is the hook through which a serving layer offers the
// selection sweep for cross-process execution. The coordinator calls
// Shards once to partition the sweep, then RunShard once per shard
// (concurrently); implementations run shards wherever they like — the
// usual one ships each shard to a replica and falls back to calling
// RunShardModels in-process when the replica is unreachable. Any error
// from RunShard abandons distribution for the whole run and the
// ordinary sequential sweep takes over.
type SweepDistributor interface {
	// Shards partitions [0,total) into ascending contiguous shards, or
	// returns nil to decline (the sweep then runs sequentially).
	Shards(total int) []SweepShard
	// RunShard executes one shard of the sweep described by models and
	// opts and returns its outcome.
	RunShard(ctx context.Context, models []fault.Model, opts Options, sh SweepShard) (*ShardOutcome, error)
}

// RunShardModels executes one contiguous shard of the §5 selection
// sweep in-process: produce (reduce, exact-solve and assemble) every
// first-seen selection in [sh.Lo, sh.Hi), fanned out over opts.Workers
// producers with producer-local warm chains. No validation, pruning or
// shrinking happens here — those depend on global sweep state and run in
// the coordinator's fold. It is the executor behind the replica set's
// internal sweep endpoint and the local fallback for unreachable peers.
// The shard runs unbudgeted (distribution is only offered to unbudgeted
// runs); ctx cancellation still aborts it.
func RunShardModels(ctx context.Context, models []fault.Model, opts Options, sh SweepShard) (_ *ShardOutcome, err error) {
	if opts.SelectionLimit <= 0 {
		opts.SelectionLimit = 64
	}
	workers, err := budget.ParseWorkers(opts.Workers)
	if err != nil {
		return nil, err
	}
	run := opts.Obs
	if run != nil {
		ctx = obs.Into(ctx, run)
	} else {
		run = obs.From(ctx)
	}
	m := budget.NewMeter(ctx, budget.Budget{})
	instances := fault.Instances(models)
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: empty fault list")
	}
	classes := tpg.Classes(instances)
	if opts.DisableEquivalence {
		classes = splitClasses(classes)
	}
	selections := tpg.Selections(classes, opts.SelectionLimit)
	if sh.Lo < 0 || sh.Hi > len(selections) || sh.Lo >= sh.Hi {
		return nil, fmt.Errorf("core: shard [%d,%d) outside the %d-selection sweep: %w", sh.Lo, sh.Hi, len(selections), budget.ErrUsage)
	}
	span := run.Start("shard")
	span.SetInt("lo", int64(sh.Lo)).SetInt("hi", int64(sh.Hi))
	defer span.End()

	sw := &sweep{
		m:          m,
		selections: selections,
		order:      orderConfig{exact: true, workers: workers, preferBB: true},
		opts:       opts,
		cache:      opts.Cache,
		workers:    workers,
	}
	sw.reduce(classes, sh.Lo, sh.Hi, nil)
	out := &ShardOutcome{Shard: sh}
	err = sw.run(ctx, sh.Lo, sh.Hi, func(u *selection) error {
		if u.sig == "" || u.err != nil {
			return nil // nothing produced, or a soft solve failure: skipped, as the fold does
		}
		sel := ShardSelection{Sig: u.sig, Nodes: u.nodes, Cost: u.cost, ExactCost: u.exactCost}
		for k := range u.orders {
			o := &u.orders[k]
			if err := o.assemble(m, opts.Beam); err != nil {
				return err
			}
			for _, cand := range o.cands {
				sel.Candidates = append(sel.Candidates, cand.String())
			}
		}
		out.Selections = append(out.Selections, sel)
		return nil
	})
	if err != nil {
		return nil, err
	}
	run.Counter("core.sweep.shards_run").Inc()
	return out, nil
}

// distributeSweep offers the sweep to the distributor, then runs the
// fold over the parsed candidate streams (see the package comment) and
// reports the shard count. ok is false — and the caller resets the fold
// state and runs the local sweep — when the distributor declines,
// returns a malformed partition, any shard fails, a candidate fails to
// parse, or no candidate validated. A non-nil err is a hard engine error
// from the fold's validation (context cancellation, simulator failure)
// and aborts the whole run, exactly as it would mid-sweep locally.
func distributeSweep(ctx context.Context, d SweepDistributor, models []fault.Model, opts Options, sw *sweep) (_ int, ok bool, err error) {
	run := obs.From(ctx)
	total := len(sw.selections)
	shards := d.Shards(total)
	if len(shards) < 2 {
		return 0, false, nil
	}
	want := 0
	for _, sh := range shards {
		if sh.Lo != want || sh.Hi <= sh.Lo {
			run.Counter("core.sweep.bad_partition").Inc()
			return 0, false, nil
		}
		want = sh.Hi
	}
	if want != total {
		run.Counter("core.sweep.bad_partition").Inc()
		return 0, false, nil
	}
	outs := make([]*ShardOutcome, len(shards))
	errs := make([]error, len(shards))
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed int
	)
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = d.RunShard(ctx, models, opts, shards[i])
			if errs[i] == nil {
				// Aggregate live progress: the packed selection cell is
				// monotone, so "selections finished so far" is a safe
				// reading even while shards complete out of order.
				mu.Lock()
				completed += shards[i].Hi - shards[i].Lo
				sw.prog.Selection(int64(completed), int64(total))
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for i := range shards {
		if errs[i] != nil || outs[i] == nil {
			run.Counter("core.sweep.shard_errors").Inc()
			return 0, false, nil
		}
	}
	for _, out := range outs {
		for _, sel := range out.Selections {
			cands := make([]*march.Test, len(sel.Candidates))
			for k, cs := range sel.Candidates {
				if cands[k], err = march.Parse(cs); err != nil {
					run.Counter("core.sweep.shard_errors").Inc()
					return 0, false, nil
				}
			}
			u := &selection{
				sig:       sel.Sig,
				nodes:     sel.Nodes,
				cost:      sel.Cost,
				exactCost: sel.ExactCost,
				orders:    []ordering{{assembled: true, cands: cands}},
			}
			if err := sw.fold(u); err != nil {
				return 0, false, err
			}
		}
	}
	return len(shards), sw.acc.best != nil, nil
}
