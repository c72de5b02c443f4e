package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// loadCommittedBench loads the repository's committed BENCH_generate.json.
// The file is measurement history, so a checkout without it (or without
// the entry under test) skips rather than fails.
func loadCommittedBench(t *testing.T) *BenchFile {
	t.Helper()
	path := filepath.Join("..", "..", "BENCH_generate.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no committed bench file: %v", err)
	}
	f, err := LoadBenchFile(path)
	if err != nil {
		t.Fatalf("committed bench file does not parse: %v", err)
	}
	return f
}

// TestCommittedBenchAdaptiveEntries guards the committed measurement
// history: every solver entry taken after "solver-warmstart" (the
// campaign preceding the enumeration's assignment-bound escalation) must
// hold or extend that baseline's warm-mode node reduction on the paper's
// complexity-6 rows, and the later entries must carry the escalation and
// allocation columns — the historic enumerate-mode allocations only on
// rows that still measured the enumerate mode. A regenerated
// BENCH_generate.json that silently regressed the adaptive win fails
// here before CI's bench smoke ever runs.
func TestCommittedBenchAdaptiveEntries(t *testing.T) {
	f := loadCommittedBench(t)
	base := f.Entry("solver-warmstart")
	if base == nil {
		t.Skip("no solver-warmstart entry committed")
	}
	baseWarm := map[string]int64{}
	for _, r := range base.Rows {
		if r.SolverNodesWarm > 0 {
			baseWarm[r.Faults] = r.SolverNodesWarm
		}
	}
	complexity6 := map[string]bool{}
	for _, spec := range Table3Spec() {
		if spec.PaperComplexity == 6 {
			complexity6[spec.Faults] = true
		}
	}

	past := false
	later := 0
	for _, e := range f.Entries {
		if e.Label == base.Label {
			past = true
			continue
		}
		if !past {
			continue
		}
		later++
		for _, r := range e.Rows {
			if !complexity6[r.Faults] || r.SolverNodesWarm <= 0 {
				continue
			}
			bw, ok := baseWarm[r.Faults]
			if !ok {
				continue
			}
			if r.SolverNodesWarm > bw {
				t.Errorf("entry %q row %s: warm nodes %d regressed past the solver-warmstart baseline %d",
					e.Label, r.Faults, r.SolverNodesWarm, bw)
			}
			if r.SolverEscalations <= 0 {
				t.Errorf("entry %q row %s: no escalation count recorded — entry predates or lost the assignment rung",
					e.Label, r.Faults)
			}
			if (r.SolverNodesEnumerate > 0 && r.SolverAllocsEnumerate == 0) || r.SolverAllocsWarm == 0 {
				t.Errorf("entry %q row %s: allocation columns missing (enum=%d warm=%d)",
					e.Label, r.Faults, r.SolverAllocsEnumerate, r.SolverAllocsWarm)
			}
		}
	}
	if later == 0 {
		t.Skip("no entries committed after solver-warmstart yet")
	}
}

// TestCommittedBenchSolverAdaptiveGain pins the PR's acceptance number
// in-tree: the committed "solver-adaptive" entry must beat the
// "solver-warmstart" entry's warm node count by at least 1.5x on at
// least one complexity-6 row, and be no worse on any.
func TestCommittedBenchSolverAdaptiveGain(t *testing.T) {
	f := loadCommittedBench(t)
	base, cur := f.Entry("solver-warmstart"), f.Entry("solver-adaptive")
	if base == nil || cur == nil {
		t.Skip("solver-warmstart/solver-adaptive entries not both committed")
	}
	baseWarm := map[string]int64{}
	for _, r := range base.Rows {
		baseWarm[r.Faults] = r.SolverNodesWarm
	}
	achieved := false
	for _, spec := range Table3Spec() {
		if spec.PaperComplexity != 6 {
			continue
		}
		bw := baseWarm[spec.Faults]
		if bw <= 0 {
			continue
		}
		var cw int64
		for _, r := range cur.Rows {
			if r.Faults == spec.Faults {
				cw = r.SolverNodesWarm
			}
		}
		if cw <= 0 {
			t.Errorf("solver-adaptive entry has no warm node count for %s", spec.Faults)
			continue
		}
		if cw > bw {
			t.Errorf("%s: solver-adaptive warm nodes %d worse than solver-warmstart %d", spec.Faults, cw, bw)
		}
		if float64(bw) >= 1.5*float64(cw) {
			achieved = true
		}
	}
	if !achieved {
		t.Error("no complexity-6 row shows the required 1.5x warm-node gain of solver-adaptive over solver-warmstart")
	}
}
