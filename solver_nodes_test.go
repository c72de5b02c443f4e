package marchgen

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marchgen/internal/experiments"
)

// solverEffort is the deterministic solver-effort profile of one
// single-worker, cold-cache generation run, extracted from the metrics
// snapshot. Every field is schedule-independent at one worker, so the
// profile is stable across runs and machines.
type solverEffort struct {
	hkStates   int64 // Held–Karp dynamic-program states
	bbExpanded int64 // branch-and-bound nodes bounded
	bbPruned   int64 // branch-and-bound subtrees cut by the AP bound
	bbShort    int64 // solves finished by the warm root shortcut
	enumNodes  int64 // optimal-path enumeration nodes
	enumEsc    int64 // enumeration steps escalated to the assignment bound
	enumEscPr  int64 // of those, steps only the escalated bound pruned
}

func (e solverEffort) total() int64 { return e.hkStates + e.bbExpanded + e.enumNodes }

func measureSolverEffort(t *testing.T, faults string) solverEffort {
	t.Helper()
	res, err := GenerateCtx(context.Background(), faults,
		WithWorkers(1), WithoutCache(), WithMetrics())
	if err != nil {
		t.Fatalf("%s: %v", faults, err)
	}
	m := res.Stats.Metrics
	return solverEffort{
		hkStates:   m["atsp.heldkarp.states"],
		bbExpanded: m["atsp.bb.expanded"],
		bbPruned:   m["atsp.bb.pruned"],
		bbShort:    m["atsp.bb.warmshort"],
		enumNodes:  m["atsp.enum.nodes"],
		enumEsc:    m["atsp.enum.escalated"],
		enumEscPr:  m["atsp.enum.escpruned"],
	}
}

// TestSolverNodesGolden locks the per-row solver effort for the paper's
// Table 3 fault lists against a committed golden file: Held–Karp state
// counts, branch-and-bound node and prune counts, warm-shortcut hits,
// enumeration nodes and the enumeration's assignment-bound escalations.
// Any solver change that moves node counts — a weaker bound, a lost warm
// start, a broken prune — shows up as a diff here even when the
// generated test stays identical:
//
//	go test -run TestSolverNodesGolden -update .
func TestSolverNodesGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Solver effort per Table 3 fault list (workers=1, cold cache).\n")
	b.WriteString("# total = heldkarp states + branch-and-bound nodes + enumeration nodes.\n")
	b.WriteString("# esc counts the enumeration's assignment-bound escalations as\n")
	b.WriteString("# escalated/escalation-pruned.\n")
	b.WriteString("# Format: <faults> | total=<n> hk=<states> bb=<expanded>/<pruned> short=<n> enum=<n> esc=<esc>/<pruned>\n")
	for _, spec := range experiments.Table3Spec() {
		e := measureSolverEffort(t, spec.Faults)
		fmt.Fprintf(&b, "%s | total=%d hk=%d bb=%d/%d short=%d enum=%d esc=%d/%d\n",
			spec.Faults, e.total(), e.hkStates, e.bbExpanded, e.bbPruned, e.bbShort,
			e.enumNodes, e.enumEsc, e.enumEscPr)
	}
	got := b.String()

	path := filepath.Join("testdata", "solver_nodes.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if got != string(want) {
		t.Errorf("solver effort diverges from %s (re-run with -update if intended):\ngot:\n%swant:\n%s",
			path, got, want)
	}
}
