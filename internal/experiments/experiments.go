// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 3 (generated March tests per fault list, with
// complexity, CPU time, and the equivalent known test), Figure 4 (the Test
// Pattern Graph of the Section 3/4 example), the Section 4 worked example
// (the 8n test for {⟨↑;1⟩, ⟨↑;0⟩}), the Section 5 equivalence ablation,
// and the efficiency comparison against the prior-art exhaustive searches.
// The same harness drives cmd/marchtable, the repository benchmarks, and
// the generation of EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"marchgen/fault"
	"marchgen/internal/baseline"
	"marchgen/internal/budget"
	"marchgen/internal/core"
	"marchgen/internal/cover"
	"marchgen/internal/sim"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// Table3Row is one row of the paper's Table 3 with the paper's published
// numbers and this reproduction's measurements.
type Table3Row struct {
	// Faults is the fault list (columns SAF/TF/ADF/CFin/CFid of Table 3).
	Faults string
	// PaperComplexity is the complexity the paper reports (the k of kn).
	PaperComplexity int
	// PaperKnown is the "equivalent known March test" column.
	PaperKnown string
	// PaperCPU is the paper's generation time on a PIII-650 laptop.
	PaperCPU time.Duration
	// Test, Complexity, Elapsed are this reproduction's results.
	Test       *march.Test
	Complexity int
	Elapsed    time.Duration
	// Complete and NonRedundant are the validation verdicts.
	Complete     bool
	NonRedundant bool
}

// Spec is one fault list of the paper's Table 3 with its published
// complexity, equivalent known test and CPU time.
type Spec struct {
	Faults          string
	PaperComplexity int
	PaperKnown      string
	PaperCPU        time.Duration
}

// table3Spec mirrors the paper's Table 3.
var table3Spec = []Spec{
	{"SAF", 4, "MATS", 490 * time.Millisecond},
	{"SAF,TF", 5, "MATS+", 530 * time.Millisecond},
	{"SAF,TF,ADF", 6, "MATS++", 610 * time.Millisecond},
	{"SAF,TF,ADF,CFin", 6, "MarchX", 690 * time.Millisecond},
	{"SAF,TF,ADF,CFin,CFid", 10, "MarchC-", 850 * time.Millisecond},
	{"CFin", 5, "(none known)", 570 * time.Millisecond},
}

// Table3Spec returns the paper's Table 3 fault lists, exported so the
// benchmark runner (cmd/marchbench), the repository benchmarks and the
// golden-file tests iterate exactly the published rows.
func Table3Spec() []Spec {
	return append([]Spec(nil), table3Spec...)
}

// Table3 regenerates the paper's Table 3.
func Table3() ([]Table3Row, error) {
	return Table3Ctx(context.Background())
}

// Table3Ctx is Table3 under a cancellation context; the context also
// carries the observability run when one is attached (see internal/obs),
// so every row's generation is traced.
func Table3Ctx(ctx context.Context) ([]Table3Row, error) {
	var rows []Table3Row
	for _, spec := range table3Spec {
		models, err := fault.ParseList(spec.Faults)
		if err != nil {
			return nil, err
		}
		res, err := core.GenerateCtx(ctx, models, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.Faults, err)
		}
		ev, err := sim.NewEvaluator(ctx, res.Instances)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.Faults, err)
		}
		rep, err := cover.AnalyzeCtx(ctx, res.Test, ev, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.Faults, err)
		}
		rows = append(rows, Table3Row{
			Faults:          spec.Faults,
			PaperComplexity: spec.PaperComplexity,
			PaperKnown:      spec.PaperKnown,
			PaperCPU:        spec.PaperCPU,
			Test:            res.Test,
			Complexity:      res.Complexity,
			Elapsed:         res.Elapsed,
			Complete:        res.Coverage.Complete(),
			NonRedundant:    rep.NonRedundant,
		})
	}
	return rows, nil
}

// Figure4 rebuilds the Test Pattern Graph of the paper's Figure 4 (fault
// list {⟨↑;1⟩, ⟨↑;0⟩}) and returns it with its node patterns in TP1..TP4
// order.
func Figure4() (*tpg.Graph, error) {
	var nodes []tpg.Node
	for _, name := range []string{"CFid<u,0>", "CFid<u,1>"} {
		m, err := fault.Parse(name)
		if err != nil {
			return nil, err
		}
		for _, inst := range m.Instances {
			nodes = append(nodes, tpg.Node{Pattern: inst.BFEs[0].Pattern, Covers: []string{inst.Name}})
		}
	}
	return tpg.New(nodes), nil
}

// WorkedExample regenerates the Section 4 example: the optimal March test
// for {⟨↑;1⟩, ⟨↑;0⟩} (the paper derives an 8n test).
func WorkedExample() (*core.Result, error) {
	return WorkedExampleCtx(context.Background())
}

// WorkedExampleCtx is WorkedExample under a cancellation context.
func WorkedExampleCtx(ctx context.Context) (*core.Result, error) {
	models, err := fault.ParseList("CFid<u,1>,CFid<u,0>")
	if err != nil {
		return nil, err
	}
	return core.GenerateCtx(ctx, models, core.DefaultOptions())
}

// ComparisonRow is one row of the efficiency comparison between the
// paper's pipeline and the prior-art searches of Section 2.
type ComparisonRow struct {
	Faults string
	// Pipeline (this paper).
	CoreComplexity int
	CoreTime       time.Duration
	// Branch-and-bound baseline (Zarrineh et al. [5]).
	BBComplexity int
	BBTime       time.Duration
	BBNodes      int64
	// Exhaustive baseline (van de Goor & Smit [2-4]); zero when skipped.
	ExComplexity int
	ExTime       time.Duration
	ExTests      int64
	ExSkipped    bool
}

// Comparison measures generation cost of the pipeline against the two
// prior-art baselines. With deep=false the heaviest searches are skipped
// (marked ExSkipped) so the comparison stays laptop-fast.
func Comparison(deep bool) ([]ComparisonRow, error) {
	return ComparisonCtx(context.Background(), deep)
}

// ComparisonCtx is Comparison under a cancellation context.
func ComparisonCtx(ctx context.Context, deep bool) ([]ComparisonRow, error) {
	specs := []struct {
		faults     string
		cap        int
		exhaustive bool // exhaustive baseline is feasible
		heavy      bool // only run with deep=true
	}{
		{"SAF", 4, true, false},
		{"SAF,TF", 5, true, false},
		{"SAF,TF,ADF", 6, false, false},
		{"CFin", 5, false, false},
		{"CFid<u,1>,CFid<u,0>", 8, false, false},
		{"SAF,TF,ADF,CFin,CFid", 10, false, true},
	}
	var rows []ComparisonRow
	for _, spec := range specs {
		if spec.heavy && !deep {
			continue
		}
		models, err := fault.ParseList(spec.faults)
		if err != nil {
			return nil, err
		}
		instances := fault.Instances(models)
		res, err := core.GenerateCtx(ctx, models, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		row := ComparisonRow{
			Faults:         spec.faults,
			CoreComplexity: res.Complexity,
			CoreTime:       res.Elapsed,
		}
		// An unbounded meter carrying ctx, so the baseline search is
		// cancellable and lands in the observability run when one is
		// attached.
		bbTest, bbStats, err := baseline.BranchBoundMeter(budget.NewMeter(ctx, budget.Budget{}), instances, spec.cap)
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline %s: %w", spec.faults, err)
		}
		row.BBComplexity = bbTest.Complexity()
		row.BBTime = bbStats.Elapsed
		row.BBNodes = bbStats.Nodes
		if spec.exhaustive {
			exTest, exStats, err := baseline.Exhaustive(instances, spec.cap)
			if err != nil {
				return nil, fmt.Errorf("experiments: exhaustive %s: %w", spec.faults, err)
			}
			row.ExComplexity = exTest.Complexity()
			row.ExTime = exStats.Elapsed
			row.ExTests = exStats.Tests
		} else {
			row.ExSkipped = true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationRow compares the pipeline with and without the Section 5
// equivalence classes.
type AblationRow struct {
	Faults                   string
	WithClasses, WithoutOnes int // TPG classes
	WithNodes, WithoutNodes  int
	WithK, WithoutK          int // complexities
	WithTime, WithoutTime    time.Duration
}

// EquivalenceAblation runs the Section 5 ablation on fault lists whose
// instances have multi-BFE equivalence classes.
func EquivalenceAblation() ([]AblationRow, error) {
	return EquivalenceAblationCtx(context.Background())
}

// EquivalenceAblationCtx is EquivalenceAblation under a cancellation
// context.
func EquivalenceAblationCtx(ctx context.Context) ([]AblationRow, error) {
	var rows []AblationRow
	// Address faults are excluded: their read-side alternative patterns
	// exist only as equivalence-class options and cannot each be forced
	// individually.
	for _, faults := range []string{"CFin", "CFin,CFst", "CFin,CFid"} {
		models, err := fault.ParseList(faults)
		if err != nil {
			return nil, err
		}
		with, err := core.GenerateCtx(ctx, models, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.DisableEquivalence = true
		without, err := core.GenerateCtx(ctx, models, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Faults:      faults,
			WithClasses: with.Classes, WithoutOnes: without.Classes,
			WithNodes: with.Nodes, WithoutNodes: without.Nodes,
			WithK: with.Complexity, WithoutK: without.Complexity,
			WithTime: with.Elapsed, WithoutTime: without.Elapsed,
		})
	}
	return rows, nil
}

// FormatTable3 renders Table 3 as a markdown table.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("| Fault list | Generated March test | Complexity | Paper | Equivalent known | Complete | Non-redundant | Time (this repo) | Time (paper, PIII-650) |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | `%s` | %dn | %dn | %s | %v | %v | %s | %s |\n",
			r.Faults, r.Test, r.Complexity, r.PaperComplexity, r.PaperKnown,
			r.Complete, r.NonRedundant, round(r.Elapsed), r.PaperCPU)
	}
	return b.String()
}

// FormatComparison renders the efficiency comparison as markdown.
func FormatComparison(rows []ComparisonRow) string {
	var b strings.Builder
	b.WriteString("| Fault list | Pipeline | Pipeline time | B&B [5] | B&B time | B&B nodes | Exhaustive [2-4] | Exhaustive time | Candidates simulated |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		ex, ext, exc := "—", "—", "—"
		if !r.ExSkipped {
			ex = fmt.Sprintf("%dn", r.ExComplexity)
			ext = round(r.ExTime).String()
			exc = fmt.Sprintf("%d", r.ExTests)
		}
		fmt.Fprintf(&b, "| %s | %dn | %s | %dn | %s | %d | %s | %s | %s |\n",
			r.Faults, r.CoreComplexity, round(r.CoreTime),
			r.BBComplexity, round(r.BBTime), r.BBNodes, ex, ext, exc)
	}
	return b.String()
}

// FormatAblation renders the Section 5 ablation as markdown.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("| Fault list | Classes (with / without) | TPG nodes (with / without) | Complexity (with / without) | Time (with / without) |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d / %d | %d / %d | %dn / %dn | %s / %s |\n",
			r.Faults, r.WithClasses, r.WithoutOnes, r.WithNodes, r.WithoutNodes,
			r.WithK, r.WithoutK, round(r.WithTime), round(r.WithoutTime))
	}
	return b.String()
}

// round trims a duration for display.
func round(d time.Duration) time.Duration {
	switch {
	case d > time.Second:
		return d.Round(10 * time.Millisecond)
	case d > time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}

// EquivalentKnown searches the classic March library for the cheapest test
// that fully covers the instance list — the automated version of Table 3's
// "equivalent known March test" column. It returns "" when no library test
// covers the list (the paper's "Not Found" row).
func EquivalentKnown(instances []fault.Instance) (string, int, error) {
	bestName, bestK := "", 0
	for _, name := range march.KnownNames() {
		kt, _ := march.Known(name)
		cov, err := sim.Evaluate(kt.Test, instances)
		if err != nil {
			return "", 0, err
		}
		if !cov.Complete() {
			continue
		}
		if bestName == "" || kt.Complexity < bestK {
			bestName, bestK = name, kt.Complexity
		}
	}
	return bestName, bestK, nil
}
