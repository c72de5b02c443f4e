package diag

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"marchgen/fault"
	"marchgen/internal/sim"
	"marchgen/march"
)

func models(t *testing.T, list string) []fault.Model {
	t.Helper()
	m, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func known(t *testing.T, name string) *march.Test {
	t.Helper()
	kt, ok := march.Known(name)
	if !ok {
		t.Fatalf("unknown %s", name)
	}
	return kt.Test
}

func TestSyndromeKey(t *testing.T) {
	if (Syndrome{}).Key() != "pass" || !(Syndrome{}).Pass() {
		t.Error("empty syndrome must be the pass outcome")
	}
	if (Syndrome{1, 3}).Key() != "1,3" {
		t.Errorf("key %q", Syndrome{1, 3}.Key())
	}
	if (Syndrome{1}).Pass() {
		t.Error("failing syndrome misclassified")
	}
}

func TestDictionarySAF(t *testing.T) {
	d, err := Build(known(t, "MATS"), models(t, "SAF"))
	if err != nil {
		t.Fatal(err)
	}
	// MATS = ⇕(w0); ⇕(r0,w1); ⇕(r1): ops 0..3; reads at 1 and 3.
	// SA0 always fails exactly the r1 (op 3); SA1 always the r0 (op 1).
	sa0 := d.Diagnose(Syndrome{3})
	if len(sa0) != 1 || sa0[0] != "SA0" {
		t.Errorf("syndrome {3} -> %v, want [SA0]", sa0)
	}
	sa1 := d.Diagnose(Syndrome{1})
	if len(sa1) != 1 || sa1[0] != "SA1" {
		t.Errorf("syndrome {1} -> %v, want [SA1]", sa1)
	}
	pass := d.Diagnose(nil)
	if len(pass) != 1 || pass[0] != GoodName {
		t.Errorf("pass -> %v, want fault-free only", pass)
	}
	if got := d.Diagnose(Syndrome{0}); len(got) != 0 {
		t.Errorf("unmodelled syndrome -> %v, want none", got)
	}
	if !d.Distinguishes("SA0", "SA1") {
		t.Error("MATS must distinguish SA0 from SA1")
	}
	classes := d.AmbiguityClasses()
	if len(classes) != 3 { // fault-free, SA0, SA1
		t.Errorf("classes %v", classes)
	}
}

// TestDictionaryUndetectedIsAmbiguousWithGood: a fault the test does not
// guarantee to detect shares the pass outcome with the fault-free memory.
func TestDictionaryUndetectedIsAmbiguousWithGood(t *testing.T) {
	d, err := Build(known(t, "MATS"), models(t, "TF"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Distinguishes("TF<d>", GoodName) {
		t.Error("MATS does not guarantee TF<d> detection; must be ambiguous with pass")
	}
	candidates := d.Diagnose(nil)
	found := false
	for _, c := range candidates {
		if c == "TF<d>" {
			found = true
		}
	}
	if !found {
		t.Errorf("pass outcome candidates %v must include TF<d>", candidates)
	}
}

func TestDictionaryOutcomesPerInit(t *testing.T) {
	d, err := Build(known(t, "MATS"), models(t, "SOF"))
	if err != nil {
		t.Fatal(err)
	}
	// The stuck-open cell is frozen at its unknown power-up value: the
	// syndrome depends on the initial content, so SOF has two outcomes.
	if got := d.Outcomes("SOF"); len(got) != 2 {
		t.Errorf("SOF outcomes %v, want 2 distinct syndromes", got)
	}
}

func TestDictionaryString(t *testing.T) {
	d, err := Build(known(t, "MATS"), models(t, "SAF"))
	if err != nil {
		t.Fatal(err)
	}
	s := d.String()
	if !strings.Contains(s, "SA0") || !strings.Contains(s, "{3}") {
		t.Errorf("rendering:\n%s", s)
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	bad := march.New(march.Elem(march.Up, march.R1))
	if _, err := Build(bad, models(t, "SAF")); err == nil {
		t.Error("invalid test must be rejected")
	}
}

// TestMarchCMinusResolvesCouplingDirections: the syndrome of March C-
// separates idempotent coupling faults by direction and aggressor side.
func TestMarchCMinusResolvesCouplingDirections(t *testing.T) {
	d, err := Build(known(t, "MarchC-"), models(t, "CFid"))
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{
		{"CFid<u,0> agg=i", "CFid<u,0> agg=j"},
		{"CFid<u,0> agg=i", "CFid<d,0> agg=i"},
		{"CFid<u,1> agg=i", "CFid<u,0> agg=i"},
	}
	for _, p := range pairs {
		if !d.Distinguishes(p[0], p[1]) {
			t.Errorf("March C- must distinguish %s from %s", p[0], p[1])
		}
	}
}

func TestPlanImprovesResolution(t *testing.T) {
	faultList := models(t, "SAF,TF,CFid")
	pool := []*march.Test{
		known(t, "MATS"),
		known(t, "MATS++"),
		known(t, "MarchC-"),
		known(t, "MarchY"),
	}
	plan, err := BuildPlan(faultList, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tests) == 0 {
		t.Fatal("empty plan")
	}
	single, err := Build(known(t, "MATS"), faultList)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Resolution() < 0.5 {
		t.Errorf("plan resolution %.2f too weak; classes %v", plan.Resolution(), plan.AmbiguityClasses())
	}
	if len(plan.AmbiguityClasses()) < len(single.AmbiguityClasses()) {
		t.Error("plan must not resolve worse than a single test")
	}
}

func TestPlanDiagnose(t *testing.T) {
	faultList := models(t, "SAF")
	pool := []*march.Test{known(t, "MATS")}
	plan, err := BuildPlan(faultList, pool)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Diagnose([]Syndrome{{3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "SA0" {
		t.Errorf("diagnosis %v, want [SA0]", got)
	}
	if _, err := plan.Diagnose(nil); err == nil {
		t.Error("syndrome count mismatch must fail")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := BuildPlan(models(t, "SAF"), nil); err == nil {
		t.Error("empty pool must fail")
	}
}

// TestBuildMatchesScalarRuns is the dictionary's differential check:
// for every library test, the chunked kernel build equals a dictionary
// filled from per-instance runs of the scalar reference engine. The
// 24 instances of SAF,TF,ADF,CFin,CFid span two kernel chunks.
func TestBuildMatchesScalarRuns(t *testing.T) {
	for _, list := range []string{"SAF,TF,ADF,CFin,CFid", "SAF,TF,CFst"} {
		ms := models(t, list)
		for _, name := range march.KnownNames() {
			mt := known(t, name)
			got, truncated, err := BuildCtx(context.Background(), mt, ms, time.Time{})
			if err != nil || truncated {
				t.Fatalf("%s on %s: truncated=%v err=%v", name, list, truncated, err)
			}
			want := &Dictionary{
				Test:       mt,
				resolution: got.resolution,
				byInstance: map[string][]Syndrome{},
				bySyndrome: map[string][]string{},
			}
			want.add(GoodName, nil)
			for _, inst := range fault.Instances(ms) {
				runs, err := sim.RunsEngine(mt, inst, sim.Scalar)
				if err != nil {
					t.Fatal(err)
				}
				for _, run := range runs {
					if sameResolution(run.Resolution, want.resolution) {
						want.add(inst.Name, Syndrome(run.MismatchOps))
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: kernel dictionary\n%s\nscalar dictionary\n%s", name, list, got, want)
			}
		}
	}
}

// TestBuildSoftDeadlineTruncates: a soft deadline already past when the
// build starts truncates the dictionary before the first chunk, leaving
// only the fault-free entry.
func TestBuildSoftDeadlineTruncates(t *testing.T) {
	d, truncated, err := BuildCtx(context.Background(), known(t, "MarchC-"), models(t, "SAF,TF"), time.Now().Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("a past soft deadline must truncate the dictionary")
	}
	if got := d.Instances(); len(got) != 1 || got[0] != GoodName {
		t.Errorf("truncated dictionary holds %v, want only %s", got, GoodName)
	}
}
