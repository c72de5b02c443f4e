package core

import (
	"math/rand"
	"testing"

	"marchgen/fault"
	"marchgen/internal/baseline"
	"marchgen/internal/cover"
	"marchgen/internal/sim"
)

func generate(t *testing.T, list string, opts Options) *Result {
	t.Helper()
	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(models, opts)
	if err != nil {
		t.Fatalf("Generate(%s): %v", list, err)
	}
	return res
}

// TestTable3 reproduces the paper's Table 3: for each fault list the
// generated March test has exactly the published complexity, covers every
// fault instance, and is non-redundant under the Set Covering check.
func TestTable3(t *testing.T) {
	rows := []struct {
		list  string
		want  int
		known string
	}{
		{"SAF", 4, "MATS"},
		{"SAF,TF", 5, "MATS+"},
		{"SAF,TF,ADF", 6, "MATS++"},
		{"SAF,TF,ADF,CFin", 6, "MarchX"},
		{"SAF,TF,ADF,CFin,CFid", 10, "MarchC-"},
		{"CFin", 5, ""},
	}
	for _, row := range rows {
		res := generate(t, row.list, DefaultOptions())
		if res.Complexity != row.want {
			t.Errorf("%s: generated %dn (%s), paper reports %dn",
				row.list, res.Complexity, res.Test, row.want)
			continue
		}
		if !res.Coverage.Complete() {
			t.Errorf("%s: coverage incomplete: %v", row.list, res.Coverage.Missed())
		}
		rep, err := cover.Analyze(res.Test, res.Instances)
		if err != nil {
			t.Errorf("%s: %v", row.list, err)
			continue
		}
		if !rep.NonRedundant {
			t.Errorf("%s: test %s is redundant (reads %v, ops %v)",
				row.list, res.Test, rep.RedundantReads, rep.RemovableOps)
		}
	}
}

// TestTable3OptimalityFastRows certifies optimality of the generated
// complexities against the independent branch-and-bound search for the
// rows whose search space is small.
func TestTable3OptimalityFastRows(t *testing.T) {
	for _, row := range []struct {
		list string
		cap  int
	}{
		{"SAF", 5},
		{"SAF,TF", 6},
		{"SAF,TF,ADF", 7},
		{"SAF,TF,ADF,CFin", 7},
		{"CFin", 6},
	} {
		res := generate(t, row.list, DefaultOptions())
		models, _ := fault.ParseList(row.list)
		opt, _, err := baseline.BranchBound(fault.Instances(models), row.cap)
		if err != nil {
			t.Fatalf("%s: %v", row.list, err)
		}
		if res.Complexity != opt.Complexity() {
			t.Errorf("%s: pipeline %dn vs proven optimum %dn (%s)",
				row.list, res.Complexity, opt.Complexity(), opt)
		}
	}
}

// TestTable3OptimalityRow5 certifies the 10n row against the deep search.
func TestTable3OptimalityRow5(t *testing.T) {
	if testing.Short() {
		t.Skip("≈20 s branch-and-bound certification")
	}
	res := generate(t, "SAF,TF,ADF,CFin,CFid", DefaultOptions())
	models, _ := fault.ParseList("SAF,TF,ADF,CFin,CFid")
	opt, _, err := baseline.BranchBound(fault.Instances(models), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complexity != opt.Complexity() {
		t.Errorf("row 5: pipeline %dn vs proven optimum %dn", res.Complexity, opt.Complexity())
	}
}

// TestSection4WorkedExample reproduces the paper's worked example: the
// fault list {⟨↑;1⟩, ⟨↑;0⟩} yields a non-redundant 8n March test.
func TestSection4WorkedExample(t *testing.T) {
	res := generate(t, "CFid<u,1>,CFid<u,0>", DefaultOptions())
	if res.Complexity != 8 {
		t.Fatalf("worked example: %dn (%s), want 8n", res.Complexity, res.Test)
	}
	rep, err := cover.Analyze(res.Test, res.Instances)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NonRedundant {
		t.Errorf("worked example test %s is redundant", res.Test)
	}
}

// TestFullTaxonomy generates a test for every built-in fault model at
// once, delay elements included.
func TestFullTaxonomy(t *testing.T) {
	res := generate(t, "SAF,TF,WDF,RDF,DRDF,IRF,SOF,DRF,ADF,CFin,CFid,CFst", DefaultOptions())
	if !res.Coverage.Complete() {
		t.Fatalf("full taxonomy: missed %v", res.Coverage.Missed())
	}
	if res.Test.Delays() == 0 {
		t.Error("full taxonomy test must contain delay elements for DRF")
	}
	rep, err := cover.Analyze(res.Test, res.Instances)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovableOps) != 0 {
		t.Errorf("full taxonomy test has removable ops %v", rep.RemovableOps)
	}
}

func TestHeuristicModeStaysValid(t *testing.T) {
	opts := DefaultOptions()
	opts.Exact = false
	res := generate(t, "SAF,TF,ADF,CFin", opts)
	if !res.Coverage.Complete() {
		t.Fatalf("heuristic mode incomplete: %v", res.Coverage.Missed())
	}
	exact := generate(t, "SAF,TF,ADF,CFin", DefaultOptions())
	if res.Complexity < exact.Complexity {
		t.Errorf("heuristic %dn beat exact %dn", res.Complexity, exact.Complexity)
	}
}

// TestEquivalenceAblation: disabling the Section 5 equivalence classes
// forces one TPG node per BFE; the result stays valid but the graph grows.
func TestEquivalenceAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableEquivalence = true
	abl := generate(t, "CFin", opts)
	if !abl.Coverage.Complete() {
		t.Fatalf("ablation incomplete: %v", abl.Coverage.Missed())
	}
	base := generate(t, "CFin", DefaultOptions())
	if abl.Classes <= base.Classes {
		t.Errorf("ablation classes %d must exceed %d", abl.Classes, base.Classes)
	}
	if abl.Complexity < base.Complexity {
		t.Errorf("ablation %dn beat equivalence-aware %dn", abl.Complexity, base.Complexity)
	}
}

func TestShrinkAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableShrink = true
	res := generate(t, "SAF,TF", opts)
	if !res.Coverage.Complete() {
		t.Fatal("no-shrink result incomplete")
	}
	if res.Complexity < generate(t, "SAF,TF", DefaultOptions()).Complexity {
		t.Error("shrinking must never lengthen the test")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, DefaultOptions()); err == nil {
		t.Error("empty fault list must fail")
	}
}

// randomSublists returns the seeded random fault lists the property
// tests run over (fewer under -short).
func randomSublists() []string {
	names := []string{"SAF", "TF", "WDF", "RDF", "DRDF", "IRF", "SOF", "ADF", "CFin", "CFid", "CFst"}
	rng := rand.New(rand.NewSource(20260707))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	lists := make([]string, trials)
	for trial := range lists {
		var list string
		for _, n := range names {
			if rng.Intn(3) == 0 {
				if list != "" {
					list += ","
				}
				list += n
			}
		}
		if list == "" {
			list = "SAF"
		}
		lists[trial] = list
	}
	return lists
}

// TestRandomSublistsPropertyBased: any random combination of fault models
// yields a complete, operation-minimal (no single removable op) test.
func TestRandomSublistsPropertyBased(t *testing.T) {
	for trial, list := range randomSublists() {
		res := generate(t, list, DefaultOptions())
		if !res.Coverage.Complete() {
			t.Errorf("trial %d (%s): incomplete: %v", trial, list, res.Coverage.Missed())
			continue
		}
		removable, err := cover.RemovableOps(res.Test, res.Instances)
		if err != nil {
			t.Errorf("trial %d (%s): %v", trial, list, err)
			continue
		}
		if len(removable) != 0 {
			t.Errorf("trial %d (%s): %s has removable ops %v", trial, list, res.Test, removable)
		}
		// The two simulation engines agree on the generated test.
		nCell, err := sim.EvaluateN(res.Test, res.Instances, 8)
		if err != nil {
			t.Errorf("trial %d: %v", trial, err)
			continue
		}
		if !nCell.Complete() {
			t.Errorf("trial %d (%s): n-cell engine disagrees: %v", trial, list, nCell.Missed())
		}
	}
}
