package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// BenchRow is one fault list's engine measurement in BENCH_generate.json.
// The first block of fields times whole generations (sequential, parallel,
// warm-cache); the kernel block times the coverage-evaluation stage alone,
// bit-parallel kernel against the scalar reference oracle, on the
// generated test and its expanded instance list.
type BenchRow struct {
	Faults       string  `json:"faults"`
	Complexity   int     `json:"complexity"`
	Test         string  `json:"test"`
	SequentialNS int64   `json:"sequential_ns"`
	ParallelNS   int64   `json:"parallel_ns"`
	WarmCacheNS  int64   `json:"warm_cache_ns"`
	SpeedupPar   float64 `json:"speedup_parallel"`
	SpeedupWarm  float64 `json:"speedup_warm_cache"`
	// Warm-phase memo cache traffic: deltas of the process-wide cache
	// counters across the warm-cache repetitions.
	WarmCacheHits      uint64 `json:"warm_cache_hits"`
	WarmCacheMisses    uint64 `json:"warm_cache_misses"`
	WarmCacheEvictions uint64 `json:"warm_cache_evictions"`
	// Pool utilisation of the parallel configuration: the fraction of
	// workers × wall-time the pool's workers spent busy, from a separate
	// instrumented run (the timed runs are observation-free).
	PoolWorkers     int     `json:"pool_workers"`
	PoolUtilization float64 `json:"pool_utilization"`
	// KernelEvalNS / ScalarEvalNS time one coverage evaluation of the
	// generated test against the row's full instance list on each engine
	// (minimum over the file's reps, averaged over an inner loop).
	KernelEvalNS int64 `json:"kernel_eval_ns,omitempty"`
	ScalarEvalNS int64 `json:"scalar_eval_ns,omitempty"`
	// SpeedupKernel is ScalarEvalNS / KernelEvalNS.
	SpeedupKernel float64 `json:"speedup_kernel,omitempty"`
	// KernelAllocsPerOp counts heap allocations per kernel evaluation.
	KernelAllocsPerOp uint64 `json:"kernel_allocs_per_op,omitempty"`
	// ScalarAllocsPerOp counts heap allocations per scalar evaluation.
	ScalarAllocsPerOp uint64 `json:"scalar_allocs_per_op,omitempty"`
	// SolverNodesWarm counts the total exact-solver nodes — Held–Karp
	// states plus branch-and-bound expansions plus optimal-path
	// enumeration nodes — of one single-worker cold-cache generation.
	// SolverNodesEnumerate and SolverNodesJoint are historic: entries
	// taken while the solver modes existed counted the same nodes under
	// the cold "enumerate" and the "joint" selection-tree mode. The fields
	// stay, in their original order, so re-encoding the file keeps those
	// columns byte for byte.
	SolverNodesEnumerate int64 `json:"solver_nodes_enumerate,omitempty"`
	SolverNodesWarm      int64 `json:"solver_nodes_warm,omitempty"`
	SolverNodesJoint     int64 `json:"solver_nodes_joint,omitempty"`
	// SolverNodeReduction is historic: SolverNodesEnumerate /
	// SolverNodesWarm.
	SolverNodeReduction float64 `json:"solver_node_reduction,omitempty"`
	// SolverWarmNS and SolverJointNS are historic: one single-worker
	// cold-cache generation timed under the warm and joint modes, minimum
	// over reps, while sequential_ns timed the enumerate mode. Since the
	// modes were retired, sequential_ns times the one solver path.
	SolverWarmNS  int64 `json:"solver_warm_ns,omitempty"`
	SolverJointNS int64 `json:"solver_joint_ns,omitempty"`
	// SolverEscalations / SolverEscalationPrunes count the optimal-path
	// enumeration's assignment-bound escalations in the solver-node run,
	// and how many of them pruned a step the min-out bound had let
	// through. Entries taken before the Lagrangian branch-and-bound rung
	// was retired add that rung's escalations, which were zero on every
	// Table 3 row.
	SolverEscalations      int64 `json:"solver_escalations,omitempty"`
	SolverEscalationPrunes int64 `json:"solver_escalation_prunes,omitempty"`
	// SolverAllocsWarm counts heap allocations of the solver-node run, a
	// whole single-worker cold-cache generation, tracking the solver's
	// allocation discipline (per-node clones, enumeration-owned scratch)
	// release over release. SolverAllocsEnumerate is historic: the same
	// count under the enumerate mode.
	SolverAllocsEnumerate uint64 `json:"solver_allocs_enumerate,omitempty"`
	SolverAllocsWarm      uint64 `json:"solver_allocs_warm,omitempty"`
	// StageNS is the pipeline-stage breakdown of the fastest sequential
	// repetition: its Stats.StageElapsed in nanoseconds, keyed by stage
	// ("expand", "select", "atsp", "assemble", "validate", "shrink",
	// "finalize"). Entries taken before the column existed omit it.
	StageNS map[string]int64 `json:"stage_ns,omitempty"`
}

// BenchEntry is one labelled measurement campaign: a full Table 3 sweep
// taken at one point in the repository's history.
type BenchEntry struct {
	// Label names the engine state the entry measured (e.g. "pre-kernel",
	// "kernel").
	Label string `json:"label"`
	// GoMaxProcs is the GOMAXPROCS of the measuring process.
	GoMaxProcs int `json:"gomaxprocs"`
	// Reps is the repetition count; the minimum time is kept.
	Reps int `json:"reps"`
	// Rows holds one measurement per Table 3 fault list.
	Rows []BenchRow `json:"rows"`
}

// BenchFile is the BENCH_generate.json schema: an append-only list of
// labelled entries, so before/after comparisons live in one committed
// file.
type BenchFile struct {
	Entries []BenchEntry `json:"entries"`
}

// legacyBenchFile is the pre-entry schema: one unlabelled sweep.
type legacyBenchFile struct {
	GoMaxProcs int        `json:"gomaxprocs"`
	Reps       int        `json:"reps"`
	Rows       []BenchRow `json:"rows"`
}

// DecodeBenchFile parses BENCH_generate.json content. The legacy
// single-sweep schema (a bare {gomaxprocs, reps, rows} object) is
// accepted and surfaced as one entry labelled "pre-kernel", so history
// written before the schema migration keeps loading.
func DecodeBenchFile(data []byte) (*BenchFile, error) {
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("experiments: parsing bench file: %w", err)
	}
	if f.Entries != nil {
		return &f, nil
	}
	var legacy legacyBenchFile
	if err := json.Unmarshal(data, &legacy); err != nil {
		return nil, fmt.Errorf("experiments: parsing legacy bench file: %w", err)
	}
	if legacy.Rows == nil {
		return nil, fmt.Errorf("experiments: bench file has neither entries nor rows")
	}
	return &BenchFile{Entries: []BenchEntry{{
		Label:      "pre-kernel",
		GoMaxProcs: legacy.GoMaxProcs,
		Reps:       legacy.Reps,
		Rows:       legacy.Rows,
	}}}, nil
}

// LoadBenchFile reads and decodes a BENCH_generate.json file.
func LoadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBenchFile(data)
}

// Upsert replaces the entry with e's label, or appends e when no entry
// carries it — re-running a measurement campaign refreshes its entry
// instead of stacking duplicates.
func (f *BenchFile) Upsert(e BenchEntry) {
	for k := range f.Entries {
		if f.Entries[k].Label == e.Label {
			f.Entries[k] = e
			return
		}
	}
	f.Entries = append(f.Entries, e)
}

// Entry returns the entry with the given label, or nil.
func (f *BenchFile) Entry(label string) *BenchEntry {
	for k := range f.Entries {
		if f.Entries[k].Label == label {
			return &f.Entries[k]
		}
	}
	return nil
}

// FormatBenchKernel renders the kernel-vs-scalar columns of a bench entry
// as a markdown table (empty string when the entry is nil or carries no
// kernel measurements).
func FormatBenchKernel(e *BenchEntry) string {
	if e == nil {
		return ""
	}
	any := false
	for _, r := range e.Rows {
		if r.KernelEvalNS > 0 {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("| fault list | kn | scalar eval | kernel eval | speedup | allocs/op (scalar → kernel) |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range e.Rows {
		if r.KernelEvalNS <= 0 {
			continue
		}
		fmt.Fprintf(&b, "| %s | %dn | %s | %s | %.1f× | %d → %d |\n",
			r.Faults, r.Complexity,
			formatNS(r.ScalarEvalNS), formatNS(r.KernelEvalNS),
			r.SpeedupKernel, r.ScalarAllocsPerOp, r.KernelAllocsPerOp)
	}
	return b.String()
}

// FormatBenchSolver renders the solver-mode node-count columns of a bench
// entry as a markdown table (empty string when the entry is nil or carries
// no solver measurements).
func FormatBenchSolver(e *BenchEntry) string {
	if e == nil {
		return ""
	}
	any := false
	for _, r := range e.Rows {
		if r.SolverNodesEnumerate > 0 {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("| fault list | kn | enumerate nodes | warm nodes | joint nodes | reduction | escalations | allocs enum→warm | enumerate time | warm time |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range e.Rows {
		if r.SolverNodesEnumerate <= 0 {
			continue
		}
		esc, allocs := "—", "—"
		if r.SolverEscalations > 0 {
			esc = fmt.Sprintf("%d (%d pruned)", r.SolverEscalations, r.SolverEscalationPrunes)
		}
		if r.SolverAllocsEnumerate > 0 {
			allocs = fmt.Sprintf("%d→%d", r.SolverAllocsEnumerate, r.SolverAllocsWarm)
		}
		fmt.Fprintf(&b, "| %s | %dn | %d | %d | %d | %.1f× | %s | %s | %s | %s |\n",
			r.Faults, r.Complexity,
			r.SolverNodesEnumerate, r.SolverNodesWarm, r.SolverNodesJoint,
			r.SolverNodeReduction, esc, allocs, formatNS(r.SequentialNS), formatNS(r.SolverWarmNS))
	}
	return b.String()
}

// formatNS renders a nanosecond count with a readable unit.
func formatNS(ns int64) string {
	switch {
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2f ms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1f µs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%d ns", ns)
	}
}
