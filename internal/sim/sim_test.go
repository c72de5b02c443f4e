package sim

import (
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/simd"
	"marchgen/march"
)

func mustKnown(t *testing.T, name string) *march.Test {
	t.Helper()
	kt, ok := march.Known(name)
	if !ok {
		t.Fatalf("unknown test %s", name)
	}
	return kt.Test
}

func mustModel(t *testing.T, name string) fault.Model {
	t.Helper()
	m, err := fault.Parse(name)
	if err != nil {
		t.Fatalf("Parse(%q): %v", name, err)
	}
	return m
}

func TestResolutions(t *testing.T) {
	mt := mustKnown(t, "MATS") // three ⇕ elements
	res, err := Resolutions(mt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("MATS resolutions: %d, want 8", len(res))
	}
	fixed := mustKnown(t, "MATS+") // ⇕ ⇑ ⇓
	res, err = Resolutions(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("MATS+ resolutions: %d, want 2", len(res))
	}
	for _, r := range res {
		if r[1] != march.Up || r[2] != march.Down {
			t.Errorf("fixed orders must be preserved: %v", r)
		}
	}
}

func TestTraceShape(t *testing.T) {
	mt := mustKnown(t, "MATS+")
	res := []march.Order{march.Up, march.Up, march.Down}
	trace, pos := Trace(mt, res)
	want := "w0i, w0j, ri, w1i, rj, w1j, rj, w0j, ri, w0i"
	if got := fsm.Sequence(trace); got != want {
		t.Errorf("trace %q, want %q", got, want)
	}
	wantPos := []int{0, 0, 1, 2, 1, 2, 3, 4, 3, 4}
	for k := range wantPos {
		if pos[k] != wantPos[k] {
			t.Fatalf("positions %v, want %v", pos, wantPos)
		}
	}
}

func TestTraceDelay(t *testing.T) {
	mt := mustKnown(t, "MarchG")
	res, err := Resolutions(mt)
	if err != nil {
		t.Fatal(err)
	}
	trace, pos := Trace(mt, res[0])
	waits := 0
	for k, in := range trace {
		if in.IsWait() {
			waits++
			if pos[k] != -1 {
				t.Errorf("wait at %d must map to position -1", k)
			}
		}
	}
	if waits != 2 {
		t.Errorf("MarchG trace has %d waits, want 2", waits)
	}
}

func TestSelfConsistentLibrary(t *testing.T) {
	for _, name := range march.KnownNames() {
		if err := SelfConsistent(mustKnown(t, name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSelfConsistentRejects(t *testing.T) {
	bad := march.New(
		march.Elem(march.Any, march.W0),
		march.Elem(march.Up, march.R1), // reads 1 from a zeroed memory
	)
	if err := SelfConsistent(bad); err == nil {
		t.Error("inconsistent test must be rejected")
	}
}

func TestMemoryBasics(t *testing.T) {
	mem, err := NewMemory(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Size() != 4 {
		t.Fatalf("size %d", mem.Size())
	}
	if got := mem.Read(2); got != march.X {
		t.Errorf("uninitialised read: %v", got)
	}
	mem.Write(2, march.One)
	if got := mem.Read(2); got != march.One {
		t.Errorf("read back: %v", got)
	}
	if got := mem.Read(1); got != march.X {
		t.Errorf("neighbour disturbed: %v", got)
	}
}

func TestNewMemoryErrors(t *testing.T) {
	if _, err := NewMemory(1, nil); err == nil {
		t.Error("1-cell memory must fail")
	}
	if _, err := NewMemory(4, &PlacedFault{A: 2, B: 2}); err == nil {
		t.Error("self-pair placement must fail")
	}
	if _, err := NewMemory(4, &PlacedFault{A: 0, B: 7}); err == nil {
		t.Error("out-of-range placement must fail")
	}
}

func TestPlacedStuckAt(t *testing.T) {
	saf := mustModel(t, "SA0")
	mem, err := NewMemory(4, &PlacedFault{Instance: saf.Instances[0], A: 1, B: 3})
	if err != nil {
		t.Fatal(err)
	}
	mem.Write(1, march.One)
	if got := mem.Read(1); got != march.Zero {
		t.Errorf("stuck-at-0 cell read %v after w1", got)
	}
	mem.Write(3, march.One) // cell j of the placement is healthy
	if got := mem.Read(3); got != march.One {
		t.Errorf("healthy cell read %v", got)
	}
}

// TestKnownCoverageFacts checks classic detection facts from the literature
// with the two-cell engine.
func TestKnownCoverageFacts(t *testing.T) {
	cases := []struct {
		test     string
		model    string
		detected bool
	}{
		{"MATS", "SAF", true},
		{"MATS", "TF", false},
		{"ZeroOne", "SAF", true},
		{"ZeroOne", "ADF", false},
		{"MATS+", "SAF", true},
		{"MATS+", "ADF", true},
		{"MATS+", "TF", false},
		{"MATS++", "SAF", true},
		{"MATS++", "TF", true},
		{"MATS++", "ADF", true},
		{"MarchX", "SAF", true},
		{"MarchX", "TF", true},
		{"MarchX", "ADF", true},
		{"MarchX", "CFin", true},
		{"MarchC-", "SAF", true},
		{"MarchC-", "TF", true},
		{"MarchC-", "ADF", true},
		{"MarchC-", "CFin", true},
		{"MarchC-", "CFid", true},
		{"MarchC-", "CFst", true},
		{"MarchC-", "DRF", false},
		{"MarchG", "SOF", true},
		{"MarchG", "DRF", true},
		{"MarchG", "CFid", true},
		{"MATS", "DRF", false},
	}
	for _, c := range cases {
		cov, err := Evaluate(mustKnown(t, c.test), mustModel(t, c.model).Instances)
		if err != nil {
			t.Fatalf("%s vs %s: %v", c.test, c.model, err)
		}
		if cov.Complete() != c.detected {
			t.Errorf("%s vs %s: detected=%v (missed %v), want %v",
				c.test, c.model, cov.Complete(), cov.Missed(), c.detected)
		}
	}
}

// TestEnginesAgree cross-validates the two-cell reduction against the
// n-cell simulator on every known March test and a broad fault list.
func TestEnginesAgree(t *testing.T) {
	models := []string{"SAF", "TF", "ADF", "CFin", "CFid", "CFst", "SOF", "DRF", "RDF", "IRF", "WDF", "DRDF"}
	var instances []fault.Instance
	for _, m := range models {
		instances = append(instances, mustModel(t, m).Instances...)
	}
	for _, name := range []string{"MATS", "MATS+", "MATS++", "MarchX", "MarchY", "MarchC-", "MarchU", "MarchG", "ZeroOne"} {
		mt := mustKnown(t, name)
		twoCell, err := Evaluate(mt, instances)
		if err != nil {
			t.Fatal(err)
		}
		nCell, err := EvaluateN(mt, instances, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := statesEqualErr(name, twoCell, nCell); err != nil {
			t.Error(err)
		}
	}
}

// TestDetectingOpsAgree checks that per-operation detection attribution
// (the Coverage Matrix rows) agrees between the two engines for a
// representative case.
func TestDetectingOpsAgree(t *testing.T) {
	mt := mustKnown(t, "MarchC-")
	instances := mustModel(t, "CFid").Instances
	twoCell, err := Evaluate(mt, instances)
	if err != nil {
		t.Fatal(err)
	}
	nCell, err := EvaluateN(mt, instances, 6)
	if err != nil {
		t.Fatal(err)
	}
	for k := range twoCell.Results {
		a, b := twoCell.Results[k].DetectingOps, nCell.Results[k].DetectingOps
		if len(a) != len(b) {
			t.Errorf("%s: detecting ops %v vs %v", twoCell.Results[k].Instance.Name, a, b)
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: detecting ops %v vs %v", twoCell.Results[k].Instance.Name, a, b)
				break
			}
		}
	}
}

// TestPlacementIndependence verifies the reduction argument: detection of a
// two-cell fault does not depend on where the pair is placed in the array.
func TestPlacementIndependence(t *testing.T) {
	mt := mustKnown(t, "MarchC-")
	inst := mustModel(t, "CFid<u,0>").Instances[0]
	res, err := Resolutions(mt)
	if err != nil {
		t.Fatal(err)
	}
	var first []int
	for _, pair := range [][2]int{{0, 1}, {0, 5}, {2, 3}, {4, 5}} {
		mism, err := runPlaced(mt, inst, simd.Compile(inst.Machine), 6, pair, 1, res[0])
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = mism
			continue
		}
		if len(mism) != len(first) {
			t.Fatalf("placement %v changes mismatches: %v vs %v", pair, mism, first)
		}
		for k := range mism {
			if mism[k] != first[k] {
				t.Fatalf("placement %v changes mismatches: %v vs %v", pair, mism, first)
			}
		}
	}
}

// TestDataRetentionNeedsDelay: the DRF leak only fires on Del elements.
func TestDataRetentionNeedsDelay(t *testing.T) {
	drf := mustModel(t, "DRF")
	withDelay, err := march.Parse("{ ⇕(w1); Del; ⇕(r1,w0); Del; ⇕(r0) }")
	if err != nil {
		t.Fatal(err)
	}
	cov, err := Evaluate(withDelay, drf.Instances)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Complete() {
		t.Errorf("delay test must detect DRF; missed %v", cov.Missed())
	}
	noDelay, err := march.Parse("{ ⇕(w1); ⇕(r1,w0); ⇕(r0) }")
	if err != nil {
		t.Fatal(err)
	}
	cov, err = Evaluate(noDelay, drf.Instances)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Complete() {
		t.Error("delay-free test must not detect DRF")
	}
}

// TestMarchSSCoversAllStaticFaults: March SS was designed for the complete
// simple static fault space; the simulator confirms it across the entire
// built-in taxonomy except retention (which needs Del elements).
func TestMarchSSCoversAllStaticFaults(t *testing.T) {
	mt := mustKnown(t, "MarchSS")
	for _, model := range []string{"SAF", "TF", "WDF", "RDF", "DRDF", "IRF", "SOF", "ADF", "CFin", "CFid", "CFst", "LCF"} {
		cov, err := Evaluate(mt, mustModel(t, model).Instances)
		if err != nil {
			t.Fatal(err)
		}
		if !cov.Complete() {
			t.Errorf("MarchSS misses %s: %v", model, cov.Missed())
		}
	}
}

// TestDualsPreserveCoverage: the built-in fault models are closed under
// data inversion and under aggressor/victim order exchange, so the
// complement and the reverse of a test cover exactly the same models.
func TestDualsPreserveCoverage(t *testing.T) {
	instances := mustModel(t, "CFid").Instances
	instances = append(instances, mustModel(t, "TF").Instances...)
	instances = append(instances, mustModel(t, "ADF").Instances...)
	for _, name := range []string{"MATS++", "MarchC-", "MarchU"} {
		base := mustKnown(t, name)
		for _, dual := range []*march.Test{march.Complement(base), march.Reverse(base)} {
			covBase, err := Evaluate(base, instances)
			if err != nil {
				t.Fatal(err)
			}
			covDual, err := Evaluate(dual, instances)
			if err != nil {
				t.Fatal(err)
			}
			if covBase.Complete() != covDual.Complete() {
				t.Errorf("%s: dual %s coverage differs (%v vs %v)",
					name, dual, covBase.Complete(), covDual.Complete())
			}
		}
	}
}
