package gts

import (
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/sim"
	"marchgen/march"
)

// patternsOf flattens the first-BFE patterns of a fault list in instance
// order.
func patternsOf(t *testing.T, list string) ([]fsm.Pattern, []fault.Instance) {
	t.Helper()
	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	insts := fault.Instances(models)
	var pats []fsm.Pattern
	for _, inst := range insts {
		pats = append(pats, inst.BFEs[0].Pattern)
	}
	return pats, insts
}

// bestValid assembles the patterns and returns the cheapest candidate that
// fully covers the instances, or nil.
func bestValid(t *testing.T, pats []fsm.Pattern, insts []fault.Instance) *march.Test {
	t.Helper()
	cands, err := Assemble(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var best *march.Test
	for _, c := range cands {
		cov, err := sim.Evaluate(c, insts)
		if err != nil || !cov.Complete() {
			continue
		}
		if best == nil || c.Complexity() < best.Complexity() {
			best = c
		}
	}
	return best
}

func TestAssembleSAF(t *testing.T) {
	pats, insts := patternsOf(t, "SAF")
	best := bestValid(t, pats, insts)
	if best == nil {
		t.Fatal("no valid candidate for SAF")
	}
	if got := best.Complexity(); got != 4 {
		t.Errorf("SAF assembly: %s (%dn), want 4n", best, got)
	}
}

func TestAssembleSAFTF(t *testing.T) {
	// TF patterns subsume the SAF ones; feeding TF alone suffices for both
	// models (the pipeline's subsumption pass arranges this).
	pats, _ := patternsOf(t, "TF")
	_, insts := patternsOf(t, "SAF,TF")
	best := bestValid(t, pats, insts)
	if best == nil {
		t.Fatal("no valid candidate for SAF+TF")
	}
	if got := best.Complexity(); got != 5 {
		t.Errorf("SAF+TF assembly: %s (%dn), want 5n", best, got)
	}
}

// TestAssembleSection4Example reproduces the paper's Section 4 worked
// example: the fault list {⟨↑;1⟩, ⟨↑;0⟩} yields an 8n non-redundant March
// test.
func TestAssembleSection4Example(t *testing.T) {
	pats, insts := patternsOf(t, "CFid<u,1>,CFid<u,0>")
	// Order the four patterns along the optimal TPG path (TP4, TP1 chain
	// with weight 0; TP3, TP2 chain with weight 0).
	ordered := []fsm.Pattern{pats[1], pats[2], pats[0], pats[3]}
	best := bestValid(t, ordered, insts)
	if best == nil {
		t.Fatal("no valid candidate for the Section 4 example")
	}
	if got := best.Complexity(); got != 8 {
		t.Errorf("Section 4 example: %s (%dn), want 8n", best, got)
	}
}

func TestNormaliseShapes(t *testing.T) {
	// Single-cell write pattern.
	p := fsm.NewPattern(fsm.S(march.Zero, march.X), []fsm.Input{fsm.Wr(fsm.CellI, march.One)}, fsm.Rd(fsm.CellI))
	s, err := normalise(p)
	if err != nil || s.kind != shapeSingle || !s.hasExcite || s.a != march.Zero || s.b != march.One {
		t.Errorf("single shape: %+v, %v", s, err)
	}
	// Pair pattern.
	p = fsm.NewPattern(fsm.S(march.Zero, march.One), []fsm.Input{fsm.Wr(fsm.CellI, march.One)}, fsm.Rd(fsm.CellJ))
	s, err = normalise(p)
	if err != nil || s.kind != shapePair || !s.aggLow || s.b != march.One {
		t.Errorf("pair shape: %+v, %v", s, err)
	}
	// Retention pattern.
	p = fsm.NewPattern(fsm.S(march.One, march.X), []fsm.Input{fsm.Wait}, fsm.Rd(fsm.CellI))
	s, err = normalise(p)
	if err != nil || s.kind != shapeRetention || s.a != march.One {
		t.Errorf("retention shape: %+v, %v", s, err)
	}
	// Observation-only pattern.
	p = fsm.NewPattern(fsm.S(march.Zero, march.X), nil, fsm.Rd(fsm.CellI))
	s, err = normalise(p)
	if err != nil || s.kind != shapeSingle || s.hasExcite {
		t.Errorf("observation-only shape: %+v, %v", s, err)
	}
	// Mixed-state observation-only patterns are rejected.
	p = fsm.NewPattern(fsm.S(march.Zero, march.One), nil, fsm.Rd(fsm.CellI))
	if _, err = normalise(p); err == nil {
		t.Error("mixed observation-only pattern must be rejected")
	}
}

func TestCoveredOracle(t *testing.T) {
	tfUp := fsm.NewPattern(fsm.S(march.Zero, march.X), []fsm.Input{fsm.Wr(fsm.CellI, march.One)}, fsm.Rd(fsm.CellI))
	tfDown := fsm.NewPattern(fsm.S(march.One, march.X), []fsm.Input{fsm.Wr(fsm.CellI, march.Zero)}, fsm.Rd(fsm.CellI))
	o, err := newOracle([]fsm.Pattern{tfUp, tfDown})
	if err != nil {
		t.Fatal(err)
	}
	// MATS++ covers the up-transition fault pattern...
	matspp, _ := march.Known("MATS++")
	st := stateOf(o, matspp.Test)
	if asIs, _ := o.covered(st, 0); !asIs {
		t.Error("MATS++ must cover the TF<u> pattern")
	}
	// ...the query advanced the snapshot over the closed prefix, and
	// clones share it...
	if st.snap.n != len(st.elems)-1 || st.clone().snap != st.snap {
		t.Errorf("snapshot covers %d of %d closed elements or is not shared", st.snap.n, len(st.elems)-1)
	}
	// ...and MATS+ does not cover the down-transition one.
	matsp, _ := march.Known("MATS+")
	if asIs, _ := o.covered(stateOf(o, matsp.Test), 1); asIs {
		t.Error("MATS+ must not cover the TF<d> pattern")
	}
	if asIs, withRead := o.covered(&state{pre: march.X, end: march.X, snap: o.root}, 1); asIs || withRead {
		t.Error("empty constructions cover nothing")
	}
	// {⇕(w1); ⇑(r1,w0)} excites TF<d> but observes it only through the
	// virtual closing ⇕(r0).
	pending := stateOf(o, &march.Test{Elements: []march.Element{
		march.Elem(march.Any, march.W1), march.Elem(march.Up, march.R1, march.W0)}})
	if asIs, withRead := o.covered(pending, 1); asIs || !withRead {
		t.Error("TF<d> must be covered exactly when the closing read is added")
	}
}

func TestAssembleRejectsUnsupported(t *testing.T) {
	// A pattern with a two-operation excitation is outside the template
	// grammar.
	p := fsm.Pattern{
		Init:    fsm.S(march.Zero, march.Zero),
		Excite:  []fsm.Input{fsm.Wr(fsm.CellI, march.One), fsm.Wr(fsm.CellJ, march.One)},
		Observe: fsm.Rd(fsm.CellJ),
	}
	if _, err := Assemble([]fsm.Pattern{p}, DefaultOptions()); err == nil {
		t.Error("multi-op excitation must be rejected")
	}
	if _, err := Assemble(nil, DefaultOptions()); err == nil {
		t.Error("an empty pattern list must be rejected")
	}
}

func TestAssembleRetention(t *testing.T) {
	pats, insts := patternsOf(t, "DRF")
	best := bestValid(t, pats, insts)
	if best == nil {
		t.Fatal("no valid candidate for DRF")
	}
	if best.Delays() < 2 {
		t.Errorf("DRF test needs two delay elements: %s", best)
	}
	if got := best.Complexity(); got > 5 {
		t.Errorf("DRF assembly too long: %s (%dn)", best, got)
	}
}

func TestStatePrimitives(t *testing.T) {
	st := &state{pre: march.X, end: march.X}
	if st.open(march.Up) {
		t.Error("open must fail on unknown memory")
	}
	if st.appendOp(march.R0) {
		t.Error("leading read append must fail on empty state")
	}
	if !st.appendOp(march.W1) || st.end != march.One {
		t.Error("write append must succeed and set end")
	}
	if !st.open(march.Down) || !st.leadRead || st.pre != march.One {
		t.Error("open after write must lead with r1")
	}
	if !st.forceDir(march.Down) {
		t.Error("forcing the same direction must succeed")
	}
	if st.forceDir(march.Up) {
		t.Error("conflicting direction must fail")
	}
	// st is {⇕(w1); ⇓(r1)}: a clone shares the closed ⇕(w1) and owns its
	// open element, so growing or re-ordering the clone leaves st alone.
	c := st.clone()
	if &c.elems[0].Ops[0] != &st.elems[0].Ops[0] {
		t.Error("clone must share closed elements")
	}
	if !c.appendOp(march.W0) || len(st.elems[1].Ops) != 1 {
		t.Error("appending to a clone must not grow the parent's open element")
	}
	if !c.open(march.Any) || len(st.elems) != 2 {
		t.Error("opening an element in a clone must not change the parent")
	}
	c2 := c.clone()
	if !c2.forceDir(march.Up) || c.elems[2].Order != march.Any {
		t.Error("re-ordering a clone's open element must not change its parent")
	}
	// closed() deep-copies: its test leaves the package.
	tst := st.closed()
	tst.Elements[0].Ops[0] = march.W0
	if st.elems[0].Ops[0] != march.W1 {
		t.Error("closed must deep-copy")
	}
}

// TestAssembleOptionDefaults checks that non-positive option fields take
// their defaults one by one — a zero candidate cap no longer collapses the
// result to a single candidate — and that a positive cap keeps exactly
// the defaults' first candidates.
func TestAssembleOptionDefaults(t *testing.T) {
	pats, _ := patternsOf(t, "SAF,TF,CFin")
	want, err := Assemble(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 3 {
		t.Fatalf("defaults give %d candidates, want at least 3", len(want))
	}
	for _, c := range []struct {
		opts Options
		n    int
	}{{Options{}, len(want)}, {Options{BeamWidth: 48}, len(want)}, {Options{MaxCandidates: -1}, len(want)}, {Options{MaxCandidates: 2}, 2}} {
		got, err := Assemble(pats, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.n {
			t.Fatalf("options %+v: %d candidates, want %d", c.opts, len(got), c.n)
		}
		for k := range got {
			if got[k].String() != want[k].String() {
				t.Errorf("options %+v: candidate %d is %s, want %s", c.opts, k, got[k], want[k])
			}
		}
	}
}
