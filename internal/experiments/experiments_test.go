package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marchgen/fault"
)

func TestTable3MatchesPaper(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Complexity != r.PaperComplexity {
			t.Errorf("%s: %dn vs paper %dn", r.Faults, r.Complexity, r.PaperComplexity)
		}
		if !r.Complete || !r.NonRedundant {
			t.Errorf("%s: complete=%v nonredundant=%v", r.Faults, r.Complete, r.NonRedundant)
		}
	}
	md := FormatTable3(rows)
	if !strings.Contains(md, "MATS++") || !strings.Contains(md, "10n") {
		t.Errorf("table rendering incomplete:\n%s", md)
	}
}

func TestFigure4Weights(t *testing.T) {
	g, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	histo := map[int]int{}
	for a := range g.Nodes {
		for b := range g.Nodes {
			if a != b {
				histo[g.Weight[a][b]]++
			}
		}
	}
	if histo[0] != 2 || histo[1] != 4 || histo[2] != 6 {
		t.Errorf("weight histogram %v, want {0:2 1:4 2:6}", histo)
	}
	md, err := FormatFigure4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "TP1 `(01, w1i, r1j)`") {
		t.Errorf("figure rendering:\n%s", md)
	}
}

func TestWorkedExampleIs8n(t *testing.T) {
	res, err := WorkedExample()
	if err != nil {
		t.Fatal(err)
	}
	if res.Complexity != 8 {
		t.Errorf("worked example %dn, want 8n", res.Complexity)
	}
}

func TestComparisonShallow(t *testing.T) {
	rows, err := Comparison(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("%d comparison rows", len(rows))
	}
	for _, r := range rows {
		if r.CoreComplexity != r.BBComplexity {
			t.Errorf("%s: pipeline %dn vs b&b optimum %dn", r.Faults, r.CoreComplexity, r.BBComplexity)
		}
		if !r.ExSkipped && r.ExComplexity != r.BBComplexity {
			t.Errorf("%s: exhaustive %dn vs b&b %dn", r.Faults, r.ExComplexity, r.BBComplexity)
		}
	}
	if md := FormatComparison(rows); !strings.Contains(md, "Pipeline") {
		t.Error("comparison rendering broken")
	}
}

func TestEquivalenceAblationRuns(t *testing.T) {
	rows, err := EquivalenceAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.WithoutOnes <= r.WithClasses {
			t.Errorf("%s: ablation must increase class count (%d vs %d)", r.Faults, r.WithoutOnes, r.WithClasses)
		}
		if r.WithK > r.WithoutK {
			t.Errorf("%s: equivalence-aware run must not be worse (%dn vs %dn)", r.Faults, r.WithK, r.WithoutK)
		}
	}
	if md := FormatAblation(rows); !strings.Contains(md, "CFin") {
		t.Error("ablation rendering broken")
	}
}

func TestReportShallow(t *testing.T) {
	if testing.Short() {
		t.Skip("full report regeneration")
	}
	body, err := Report(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 3", "Figure 4", "worked example", "equivalence ablation"} {
		if !strings.Contains(strings.ToLower(body), strings.ToLower(want)) {
			t.Errorf("report missing section %q", want)
		}
	}
}

// TestEquivalentKnownColumn re-derives Table 3's "equivalent known March
// test" column with *coverage* semantics: the cheapest classic test that
// fully covers each fault list. The paper's column is complexity-
// equivalence; the simulator sharpens it on two rows. MATS+ — the paper's
// 5n citation for SAF+TF — famously misses the falling transition fault
// (that is exactly why MATS++ exists), so the cheapest *covering* classic
// is MATS++ at 6n and the generated 5n test strictly beats the library.
// Likewise no classic matches the generated 5n CFin test (the paper's
// "Not Found").
func TestEquivalentKnownColumn(t *testing.T) {
	want := map[string]struct {
		name string
		k    int
	}{
		"SAF":                  {"MATS", 4},
		"SAF,TF":               {"MATS++", 6}, // generated: 5n — strictly better
		"SAF,TF,ADF":           {"MATS++", 6},
		"SAF,TF,ADF,CFin":      {"MarchX", 6},
		"SAF,TF,ADF,CFin,CFid": {"MarchC-", 10},
	}
	for list, w := range want {
		models, err := fault.ParseList(list)
		if err != nil {
			t.Fatal(err)
		}
		name, k, err := EquivalentKnown(fault.Instances(models))
		if err != nil {
			t.Fatal(err)
		}
		if name != w.name || k != w.k {
			t.Errorf("%s: cheapest covering classic is %s (%dn), want %s (%dn)", list, name, k, w.name, w.k)
		}
	}
	// CFin alone: the cheapest covering classic costs more than the
	// generated 5n test — the paper's "Not Found" entry.
	models, _ := fault.ParseList("CFin")
	name, k, err := EquivalentKnown(fault.Instances(models))
	if err != nil {
		t.Fatal(err)
	}
	if k <= 5 {
		t.Errorf("a classic test (%s, %dn) matches the generated 5n CFin test; the paper's Not Found would be wrong", name, k)
	}
}

// TestSpliceKeepsHandWrittenSections splices a stand-in report body onto
// the committed EXPERIMENTS.md, as marchtable -write does: every heading
// from the marker line on must survive, the generated text above the
// marker must be replaced, and a file without the marker is refused.
func TestSpliceKeepsHandWrittenSections(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Skipf("no committed EXPERIMENTS.md: %v", err)
	}
	committed := string(data)
	i := strings.Index(committed, HandWrittenMarker)
	if i < 0 {
		t.Fatal("committed EXPERIMENTS.md has no hand-written marker line")
	}
	const body = "# EXPERIMENTS — stand-in body\n"
	got, err := SpliceReport(body, committed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, body) || strings.Contains(got, "## Table 3") {
		t.Error("the generated text above the marker was not replaced")
	}
	headings := 0
	for _, line := range strings.Split(committed[i:], "\n") {
		if strings.HasPrefix(line, "#") {
			headings++
			if !strings.Contains(got, "\n"+line+"\n") {
				t.Errorf("heading %q lost by the splice", line)
			}
		}
	}
	if headings == 0 {
		t.Error("no heading below the marker")
	}
	if _, err := SpliceReport(body, committed[:i]); err == nil {
		t.Error("a file without the marker was overwritten")
	}
}
