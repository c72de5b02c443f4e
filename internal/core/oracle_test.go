package core

import (
	"context"
	"slices"
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/atsp"
	"marchgen/internal/budget"
	"marchgen/internal/tpg"
)

// coldOracleLists is the warm-versus-cold corpus: every built-in fault
// model alone, the paper's Table 3 rows, and three mixed lists with wide
// selection products.
func coldOracleLists() []string {
	lists := append(fault.ModelNames(), table3Lists...)
	return append(lists, "SAF,TF,CFst", "TF,CFid,CFin", "SOF,WDF,IRF")
}

// coldOrders is the oracle for one reduced TPG: a cold, unprimed exact
// solve that takes the Held–Karp route up to 13 nodes, turned into
// orderings and visit cost the way orderPatterns turns its own solve.
func coldOrders(t *testing.T, nodes []tpg.Node) ([]string, int) {
	t.Helper()
	g := tpg.New(nodes)
	starts := make([]int, len(nodes))
	total := 0
	for b := range nodes {
		starts[b] = g.StartCost(b)
		total += g.NodeCost(b)
	}
	paths, cost, err := atsp.OptimalPathsOpt(nil, atsp.Matrix(g.Weight), starts, 8, atsp.PathOptions{})
	if err != nil {
		t.Fatalf("cold oracle: %v", err)
	}
	var orders []string
	for _, path := range paths {
		forward := make([]fsm.Pattern, len(path))
		backward := make([]fsm.Pattern, len(path))
		for k, v := range path {
			forward[k] = nodes[v].Pattern
			backward[len(path)-1-k] = nodes[v].Pattern
		}
		orders = append(orders, orderSignature(forward), orderSignature(backward))
	}
	return orders, cost + total
}

// TestWarmSolvesMatchColdOracle pins the one exact solver path to a cold
// oracle. For every deduplicated selection of every corpus list, in sweep
// order, orderPatterns runs warm-started from the previous selection's
// first ordering, as the inline sweep threads it. It must return exactly
// the orderings and cost of the cold solve: the warm incumbent may move
// node counts, never the tied optimal orderings the strict prune keeps.
// Single-node selections never reach the solver and are skipped.
func TestWarmSolvesMatchColdOracle(t *testing.T) {
	m := budget.NewMeter(context.Background(), budget.Budget{})
	for _, list := range coldOracleLists() {
		models, err := fault.ParseList(list)
		if err != nil {
			t.Fatal(err)
		}
		classes := tpg.Classes(fault.Instances(models))
		selections := tpg.Selections(classes, DefaultOptions().SelectionLimit)
		var warm []fsm.Pattern
		seen := map[string]bool{}
		for i, sel := range selections {
			nodes := tpg.Reduce(classes, sel)
			sig := nodeSignature(nodes)
			if seen[sig] || len(nodes) == 1 {
				continue
			}
			seen[sig] = true
			cfg := orderConfig{exact: true, warm: warm}
			orders, cost, exact, err := orderPatterns(m, nodes, cfg, nil, func(string) {})
			if err != nil || !exact {
				t.Fatalf("%s selection %d: exact=%v err=%v", list, i, exact, err)
			}
			got := make([]string, len(orders))
			for k, o := range orders {
				got[k] = orderSignature(o)
			}
			want, wantCost := coldOrders(t, nodes)
			if cost != wantCost || !slices.Equal(got, want) {
				t.Errorf("%s selection %d (%d nodes): warm cost %d orderings\n  %q\ncold cost %d orderings\n  %q",
					list, i, len(nodes), cost, got, wantCost, want)
			}
			warm = orders[0]
		}
	}
}
