// Durable-checkpoint support: the memo codec that lets the engine's
// intermediate artifacts survive process death. The async job subsystem
// (internal/jobs) attaches a disk tier to the shared memo cache; this
// codec decides which cache values cross to disk and how.
//
// Persisted kinds are exactly the per-subproblem artifacts the pipeline
// checkpoints through at stage boundaries:
//
//   - tour fragments: each §5 selection's solved exact-ATSP incumbent
//     (every optimal open path of one TPG weight matrix plus its cost),
//     keyed by the weight-matrix fingerprint — the expensive part of a
//     run, written the moment each selection's solve completes. A
//     restarted run's solve of the same matrix is answered by it outright,
//     after orderPatterns checks it against the instance;
//   - completeness verdicts: one simulator verdict per candidate March
//     test, keyed by fault list and test signature.
//   - whole results: the full cached Result of a completed unbudgeted
//     run — test, statistics and a thin coverage report (per-instance
//     verdicts by position; the instances themselves are re-expanded
//     from the fault list at load time, which is what keeps the
//     encoding small and the key the sole source of truth). This is
//     the kind that warms a restarted server from its store: one
//     entry answers a whole generate request with FromCache set and
//     zero engine work.
//
// Coverage matrices stay memory-only: they rebuild quickly from the
// bit-parallel kernel. Because memo values are pure functions of their
// content-hash keys, a resumed run that loads these entries recomputes
// nothing it already finished and still produces byte-identical output.
// Entries of a kind this codec no longer writes (the retired "tpgcost"
// cost fragments of older builds) decode as misses.
package core

import (
	"encoding/json"

	"marchgen/internal/memo"
	"marchgen/internal/sim"
	"marchgen/march"
)

// persist tags the on-disk encodings; a version byte first so a future
// layout change can't misparse old stores.
const (
	persistVersion    = 1
	persistKindTour   = "tour"
	persistKindBool   = "verdict"
	persistKindResult = "result"
)

// persistEnvelope is the JSON wrapper around every persisted memo value.
type persistEnvelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// persistTour is the wire form of a tourFragment.
type persistTour struct {
	Paths [][]int `json:"paths"`
	Cost  int     `json:"cost"`
}

// persistVerdict is one instance's thin coverage row: its verdict and
// detecting operation indices, positional — row i belongs to instance i
// of the fault list re-expanded at load time.
type persistVerdict struct {
	Detected bool  `json:"detected"`
	Ops      []int `json:"ops,omitempty"`
}

// persistResult is the wire form of a cachedResult. Tests travel in
// March notation (Parse/String round-trips are exact for generated,
// unnamed tests); the coverage report travels as positional thin rows.
type persistResult struct {
	Test         string           `json:"test"`
	Complexity   int              `json:"complexity"`
	Classes      int              `json:"classes"`
	Selections   int              `json:"selections"`
	Nodes        int              `json:"nodes"`
	PathCost     int              `json:"path_cost"`
	MinSelCost   int              `json:"min_sel_cost"`
	Candidates   int              `json:"candidates"`
	UsedFallback bool             `json:"used_fallback,omitempty"`
	CovTest      string           `json:"cov_test"`
	Verdicts     []persistVerdict `json:"verdicts"`
}

// memoCodec implements memo.Codec over the engine's persistable values.
type memoCodec struct{}

// Codec returns the memo.Codec covering the generation engine's
// persistable cache values: exact-ATSP tour fragments and completeness
// verdicts. Values outside those kinds are reported non-persistable and
// stay memory-only.
func Codec() memo.Codec { return memoCodec{} }

func (memoCodec) Encode(val any) ([]byte, bool) {
	var env persistEnvelope
	env.V = persistVersion
	switch v := val.(type) {
	case *tourFragment:
		data, err := json.Marshal(persistTour{Paths: v.paths, Cost: v.cost})
		if err != nil {
			return nil, false
		}
		env.Kind, env.Data = persistKindTour, data
	case bool:
		data, err := json.Marshal(v)
		if err != nil {
			return nil, false
		}
		env.Kind, env.Data = persistKindBool, data
	case *cachedResult:
		if v.test == nil || v.coverage.Test == nil {
			return nil, false
		}
		p := persistResult{
			Test:         v.test.String(),
			Complexity:   v.complexity,
			Classes:      v.classes,
			Selections:   v.selections,
			Nodes:        v.nodes,
			PathCost:     v.pathCost,
			MinSelCost:   v.minSelCost,
			Candidates:   v.candidates,
			UsedFallback: v.usedFallback,
			CovTest:      v.coverage.Test.String(),
			Verdicts:     make([]persistVerdict, len(v.coverage.Results)),
		}
		for i, r := range v.coverage.Results {
			p.Verdicts[i] = persistVerdict{Detected: r.Detected, Ops: r.DetectingOps}
		}
		data, err := json.Marshal(p)
		if err != nil {
			return nil, false
		}
		env.Kind, env.Data = persistKindResult, data
	default:
		return nil, false
	}
	out, err := json.Marshal(env)
	if err != nil {
		return nil, false
	}
	return out, true
}

func (memoCodec) Decode(data []byte) (any, bool) {
	var env persistEnvelope
	if json.Unmarshal(data, &env) != nil || env.V != persistVersion {
		return nil, false
	}
	switch env.Kind {
	case persistKindTour:
		var t persistTour
		if json.Unmarshal(env.Data, &t) != nil || len(t.Paths) == 0 {
			return nil, false
		}
		return &tourFragment{paths: t.Paths, cost: t.Cost}, true
	case persistKindBool:
		var v bool
		if json.Unmarshal(env.Data, &v) != nil {
			return nil, false
		}
		return v, true
	case persistKindResult:
		var p persistResult
		if json.Unmarshal(env.Data, &p) != nil || p.Test == "" || p.CovTest == "" {
			return nil, false
		}
		test, err := march.Parse(p.Test)
		if err != nil {
			return nil, false
		}
		covTest, err := march.Parse(p.CovTest)
		if err != nil {
			return nil, false
		}
		cov := sim.Coverage{Test: covTest, Results: make([]sim.InstanceResult, len(p.Verdicts))}
		for i, v := range p.Verdicts {
			// The Instance field stays zero here: cachedResult.result
			// rehydrates it positionally from the re-expanded fault list.
			cov.Results[i] = sim.InstanceResult{Detected: v.Detected, DetectingOps: v.Ops}
		}
		return &cachedResult{
			test:         test,
			complexity:   p.Complexity,
			classes:      p.Classes,
			selections:   p.Selections,
			nodes:        p.Nodes,
			pathCost:     p.PathCost,
			minSelCost:   p.MinSelCost,
			candidates:   p.Candidates,
			usedFallback: p.UsedFallback,
			coverage:     cov,
		}, true
	default:
		return nil, false
	}
}
