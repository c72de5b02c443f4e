package cover

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/march"
)

func instances(t *testing.T, list string) []fault.Instance {
	t.Helper()
	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	return fault.Instances(models)
}

func known(t *testing.T, name string) *march.Test {
	t.Helper()
	kt, ok := march.Known(name)
	if !ok {
		t.Fatalf("unknown %s", name)
	}
	return kt.Test
}

func TestBuildMATSvsSAF(t *testing.T) {
	m, err := Build(known(t, "MATS"), instances(t, "SAF"))
	if err != nil {
		t.Fatal(err)
	}
	// MATS = ⇕(w0); ⇕(r0,w1); ⇕(r1): reads at flattened ops 1 and 3.
	if len(m.Rows) != 2 || m.Rows[0] != 1 || m.Rows[1] != 3 {
		t.Errorf("rows %v, want [1 3]", m.Rows)
	}
	// SAF: 2 instances × 4 inits × 8 resolutions.
	if len(m.Cols) != 64 {
		t.Errorf("%d columns, want 64", len(m.Cols))
	}
}

func TestBuildRejectsIncomplete(t *testing.T) {
	if _, err := Build(known(t, "MATS"), instances(t, "TF")); err == nil {
		t.Error("MATS does not cover TF; Build must fail")
	}
}

func TestMATSIsNonRedundantForSAF(t *testing.T) {
	rep, err := Analyze(known(t, "MATS"), instances(t, "SAF"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NonRedundant {
		t.Errorf("MATS vs SAF must be non-redundant: redundant reads %v, removable ops %v",
			rep.RedundantReads, rep.RemovableOps)
	}
	if len(rep.MinCover) != len(rep.Matrix.Rows) {
		t.Errorf("min cover %v vs rows %v", rep.MinCover, rep.Matrix.Rows)
	}
}

// TestMarchCIsRedundantForCoupling reproduces the classic fact motivating
// March C-: March C contains a redundant ⇕(r0) element.
func TestMarchCIsRedundantForCoupling(t *testing.T) {
	insts := instances(t, "SAF,TF,ADF,CFin,CFid")
	rep, err := Analyze(known(t, "MarchC"), insts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonRedundant {
		t.Error("March C must be redundant for the March C- fault list")
	}
	found := false
	for _, op := range rep.RemovableOps {
		if op == 5 { // the middle ⇕(r0): ops w0,r0,w1,r1,w0,[r0],...
			found = true
		}
	}
	if !found {
		t.Errorf("removable ops %v must include the middle ⇕(r0) read (op 5)", rep.RemovableOps)
	}

	// March C- itself is non-redundant for the same list.
	rep, err = Analyze(known(t, "MarchC-"), insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovableOps) != 0 {
		t.Errorf("March C- must have no removable ops, got %v", rep.RemovableOps)
	}
}

func TestGreedyCoversEverything(t *testing.T) {
	m, err := Build(known(t, "MarchC-"), instances(t, "CFid"))
	if err != nil {
		t.Fatal(err)
	}
	chosen := m.Greedy()
	covered := make([]bool, len(m.Cols))
	for _, r := range chosen {
		for c := range m.Cols {
			if m.At(r, c) {
				covered[c] = true
			}
		}
	}
	for c, ok := range covered {
		if !ok {
			t.Fatalf("greedy cover misses column %s", m.Cols[c])
		}
	}
	mc, err := m.MinCover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mc) > len(chosen) {
		t.Errorf("min cover %d larger than greedy %d", len(mc), len(chosen))
	}
}

// TestSOFConjunctiveColumns: a stuck-open fault needs two different reads —
// the per-initial-content columns make this expressible.
func TestSOFConjunctiveColumns(t *testing.T) {
	test, err := march.Parse("{ ⇕(w0); ⇕(r0); ⇕(w1); ⇕(r1) }")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(test, instances(t, "SOF"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MinCover) < 2 {
		t.Errorf("SOF needs at least two elementary blocks, min cover %v", rep.MinCover)
	}
}

// countdownCtx reports cancellation from its (after+1)-th Err call on,
// so a test can cancel at each point where the code consults ctx.
type countdownCtx struct {
	context.Context
	after, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestRemovableOpsHonoursCancel: the op-level audit runs under its
// caller's context. An already-cancelled context returns
// budget.ErrCanceled, and so does a cancellation first seen at any later
// point where the audit consults ctx, never a partial removable set.
func TestRemovableOpsHonoursCancel(t *testing.T) {
	mt, insts := known(t, "MarchC"), instances(t, "SAF,TF,ADF,CFin,CFid")
	want, err := RemovableOps(mt, insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("March C must have removable ops for the March C- fault list")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := RemovableOpsCtx(ctx, mt, insts); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("cancelled audit: %v, %v; want budget.ErrCanceled", got, err)
	}
	full := &countdownCtx{Context: context.Background(), after: math.MaxInt}
	got, err := RemovableOpsCtx(full, mt, insts)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("uncancelled audit: %v, %v; want %v", got, err, want)
	}
	if trials := mt.Complexity(); full.calls <= trials {
		t.Fatalf("ctx consulted %d times, want more than once per trial (%d)", full.calls, trials)
	}
	for k := 0; k < full.calls; k++ {
		c := &countdownCtx{Context: context.Background(), after: k}
		if got, err := RemovableOpsCtx(c, mt, insts); !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("cancelled at ctx check %d of %d: %v, %v; want budget.ErrCanceled", k+1, full.calls, got, err)
		}
	}
}

// TestAuditErrorTexts pins the errors of incomplete, inconsistent and
// malformed tests, texts and order. In AnalyzeCtx the matrix build's
// miss comes first, then the audit's self-consistency check, which
// validates the test too; RemovableOps evaluates the test itself, so it
// reports an inconsistent test before a miss, and a miss as a list.
func TestAuditErrorTexts(t *testing.T) {
	cases := []struct {
		test, faults      string
		analyze, removals string
	}{
		{
			"{ ⇕(w0); ⇑(r0,w1); ⇓(r1,w0) }", "SAF,TF",
			"cover: test { ⇕(w0); ⇑(r0,w1); ⇓(r1,w0) } misses TF<d> (init 00)",
			"cover: test { ⇕(w0); ⇑(r0,w1); ⇓(r1,w0) } misses [TF<d>]",
		},
		{
			"{ ⇕(w0); ⇑(r1) }", "SAF",
			"cover: test { ⇕(w0); ⇑(r1) } misses SA0 (init 00)",
			"sim: test { ⇕(w0); ⇑(r1) } is inconsistent: operation 1 (r1) reads 0 on a fault-free memory",
		},
		{
			"{ ⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0); ⇕(r1) }", "SAF,TF,ADF,CFin,CFid",
			"sim: test { ⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0); ⇕(r1) } is inconsistent: operation 10 (r1) reads 0 on a fault-free memory",
			"sim: test { ⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0); ⇕(r1) } is inconsistent: operation 10 (r1) reads 0 on a fault-free memory",
		},
		{
			"{ ⇑(r0,w1); ⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0) }", "SAF,TF,ADF,CFin,CFid",
			"march: test reads before any write (first operation r0)",
			"march: test reads before any write (first operation r0)",
		},
		{
			"{ ⇕(w0); ⇑(r0,w1); Del; ⇕(r0); ⇓(r1,w0); ⇕(r0) }", "SAF,TF",
			"sim: test { ⇕(w0); ⇑(r0,w1); Del; ⇕(r0); ⇓(r1,w0); ⇕(r0) } is inconsistent: operation 3 (r0) reads 1 on a fault-free memory",
			"sim: test { ⇕(w0); ⇑(r0,w1); Del; ⇕(r0); ⇓(r1,w0); ⇕(r0) } is inconsistent: operation 3 (r0) reads 1 on a fault-free memory",
		},
	}
	for _, c := range cases {
		mt, err := march.Parse(c.test)
		if err != nil {
			t.Fatal(err)
		}
		insts := instances(t, c.faults)
		if _, err := AnalyzeCtx(context.Background(), mt, insts, nil); err == nil || err.Error() != c.analyze {
			t.Errorf("%s on %s: AnalyzeCtx error %v, want %q", c.test, c.faults, err, c.analyze)
		}
		if _, err := RemovableOps(mt, insts); err == nil || err.Error() != c.removals {
			t.Errorf("%s on %s: RemovableOps error %v, want %q", c.test, c.faults, err, c.removals)
		}
	}
}
