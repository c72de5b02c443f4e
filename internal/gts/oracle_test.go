package gts

import (
	"fmt"
	"math"
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/atsp"
	"marchgen/internal/sim"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// coveredBy is the scalar reference for the lane oracle: the test covers
// the machine when the scalar simulator detects it under both the
// all-ascending and the all-descending resolution of its ⇕ elements.
func coveredBy(t *march.Test, m fsm.Machine) bool {
	for _, dir := range resolutions {
		res := make([]march.Order, len(t.Elements))
		for k, e := range t.Elements {
			res[k] = e.Order
			if e.Order == march.Any {
				res[k] = dir
			}
		}
		trace, _ := sim.Trace(t, res)
		if !fsm.Detects(m, trace) {
			return false
		}
	}
	return true
}

// checkAgainstScalar installs coveredHook for the rest of the test: every
// lane-oracle verdict is recomputed by the scalar reference, and the test
// fails on the first difference. It returns the count of checked
// verdicts.
func checkAgainstScalar(tb testing.TB) *int {
	machines := map[string]fsm.Machine{}
	checked := 0
	coveredHook = func(t *march.Test, p fsm.Pattern, got bool) {
		checked++
		m, ok := machines[p.String()]
		if !ok {
			m = syntheticMachine(p)
			machines[p.String()] = m
		}
		if want := coveredBy(t, m); got != want {
			tb.Fatalf("covered(%s, %s) = %v, scalar reference says %v", t, p, got, want)
		}
	}
	tb.Cleanup(func() { coveredHook = nil })
	return &checked
}

// stateOf turns a March test into a construction whose last element is
// the open one.
func stateOf(o *oracle, t *march.Test) *state {
	st := &state{pre: march.X, end: march.X, snap: o.root}
	for _, e := range t.Elements {
		st.elems = append(st.elems, march.Element{Order: e.Order, Delay: e.Delay, Ops: append([]march.Op(nil), e.Ops...)})
		for _, op := range e.Ops {
			if op.IsWrite() {
				st.end = op.Data
			}
		}
	}
	return st
}

// table3Rows are the fault lists of the paper's Table 3.
var table3Rows = []string{"SAF", "SAF,TF", "SAF,TF,ADF", "SAF,TF,ADF,CFin", "SAF,TF,ADF,CFin,CFid", "CFin"}

// optimalOrderings returns the pattern orderings the generation pipeline
// hands to the assembler for a fault list: for every distinct class
// selection, each optimal TPG visit forwards and backwards.
func optimalOrderings(t *testing.T, list string) [][]fsm.Pattern {
	t.Helper()
	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	classes := tpg.Classes(fault.Instances(models))
	var out [][]fsm.Pattern
	for _, sel := range tpg.Selections(classes, 64) {
		nodes := tpg.Reduce(classes, sel)
		if len(nodes) == 1 {
			out = append(out, []fsm.Pattern{nodes[0].Pattern})
			continue
		}
		g := tpg.New(nodes)
		starts := make([]int, len(nodes))
		for b := range nodes {
			starts[b] = g.StartCost(b)
		}
		paths, _, err := atsp.OptimalPathsOpt(nil, atsp.Matrix(g.Weight), starts, 8, atsp.PathOptions{PreferBB: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			fwd := make([]fsm.Pattern, len(path))
			bwd := make([]fsm.Pattern, len(path))
			for k, v := range path {
				fwd[k] = nodes[v].Pattern
				bwd[len(path)-1-k] = nodes[v].Pattern
			}
			out = append(out, fwd, bwd)
		}
	}
	return out
}

// TestCoveredMatchesScalarTable3 checks every lane-oracle verdict against
// the scalar simulator while assembling the optimal orderings of all six
// Table 3 rows.
func TestCoveredMatchesScalarTable3(t *testing.T) {
	checked := checkAgainstScalar(t)
	for _, row := range table3Rows {
		for _, ord := range optimalOrderings(t, row) {
			// Orderings outside the rewrite grammar fail to assemble; their
			// verdicts up to the failure are still checked.
			_, _ = Assemble(ord, DefaultOptions())
		}
	}
	if *checked == 0 {
		t.Fatal("the coverage hook never fired")
	}
	t.Logf("%d verdicts match the scalar reference", *checked)
}

// TestBuiltStatesNeverChange steps the beam over the CFid row's optimal
// orderings and checks that no state changes once built. Rewrites run on
// a scratch copy whose buffers are reused, so a built state aliasing
// those buffers would be rewritten behind the beam's back.
func TestBuiltStatesNeverChange(t *testing.T) {
	fingerprint := func(st *state) string {
		return fmt.Sprintf("%x|%d|%v%v|%v%v%v", st.appendKey(nil), st.cost, st.pre, st.end, st.leadRead, st.needRead, st.locked)
	}
	built := map[*state]string{}
	for _, ord := range optimalOrderings(t, "SAF,TF,ADF,CFin,CFid") {
		o, err := newOracle(ord)
		if err != nil {
			t.Fatal(err)
		}
		x := &expander{oracle: o, seen: map[string]bool{}}
		beam := []*state{{pre: march.X, end: march.X, snap: o.root}}
		for k, p := range ord {
			s, err := normalise(p)
			if err == nil {
				beam, err = x.step(nil, beam, k, s, DefaultOptions().BeamWidth)
			}
			if err != nil {
				break // outside the rewrite grammar
			}
			for _, st := range beam {
				if _, ok := built[st]; !ok {
					built[st] = fingerprint(st)
				}
			}
		}
	}
	if len(built) == 0 {
		t.Fatal("no state was built")
	}
	for st, want := range built {
		if got := fingerprint(st); got != want {
			t.Fatalf("a built state changed: %s, was %s", got, want)
		}
	}
}

// primitives returns the fuzzer's alphabet: the test pattern of every
// Basic Fault Effect of every built-in fault model that the rewrite
// grammar accepts. Each is a test primitive — an initialisation, an
// excitation and an observation — in the sense of Xiao et al.
func primitives(tb testing.TB) []fsm.Pattern {
	var models []fault.Model
	for _, name := range fault.ModelNames() {
		m, err := fault.Parse(name)
		if err != nil {
			tb.Fatal(err)
		}
		models = append(models, m)
	}
	var out []fsm.Pattern
	for _, inst := range fault.Instances(models) {
		for _, b := range inst.BFEs {
			if _, err := normalise(b.Pattern); err == nil {
				out = append(out, b.Pattern)
			}
		}
	}
	return out
}

// checkCut assembles pats under cut and checks the result against want
// and wantErr, the uncut assembly's: the cut output is a prefix of want
// that holds every test of want with complexity below cut, no test in it
// exceeds cut, and an uncut error may only become an empty, error-free
// output. Cut 0 is no cut, so the outputs must be equal.
func checkCut(tb testing.TB, pats []fsm.Pattern, want []*march.Test, wantErr error, cut int) {
	tb.Helper()
	got, err := AssembleMeter(nil, pats, DefaultOptions(), cut)
	switch {
	case err != nil && wantErr == nil:
		tb.Fatalf("cut %d: %v, but uncut assembly succeeds", cut, err)
	case wantErr != nil && len(got) > 0:
		tb.Fatalf("cut %d: %d candidates, but uncut assembly fails: %v", cut, len(got), wantErr)
	case err != nil || wantErr != nil:
		return
	}
	limit := cut
	if cut == 0 {
		limit = math.MaxInt
	}
	if len(got) > len(want) {
		tb.Fatalf("cut %d: %d candidates, uncut only %d", cut, len(got), len(want))
	}
	for k, c := range got {
		if c.String() != want[k].String() {
			tb.Fatalf("cut %d: candidate %d is %s, uncut %s", cut, k, c, want[k])
		}
		if c.Complexity() > limit {
			tb.Fatalf("cut %d: candidate %s is %dn", cut, c, c.Complexity())
		}
	}
	for _, c := range want[len(got):] {
		if c.Complexity() < limit {
			tb.Fatalf("cut %d dropped %s (%dn)", cut, c, c.Complexity())
		}
	}
}

// TestAssembleCutTable3 checks the cut's contract on the optimal
// orderings of all six Table 3 rows, at cuts around each row's published
// complexity: the fold's cut is the incumbent's complexity + 2.
func TestAssembleCutTable3(t *testing.T) {
	complexity := []int{4, 5, 6, 6, 10, 5}
	for r, list := range table3Rows {
		for _, pats := range optimalOrderings(t, list) {
			want, err := Assemble(pats, DefaultOptions())
			for cut := complexity[r]; cut <= complexity[r]+3; cut++ {
				checkCut(t, pats, want, err, cut)
			}
		}
	}
}

// FuzzAssemble assembles random sequences of test primitives, uncut and
// under a random cut: every coverage verdict must match the scalar
// reference, every returned candidate must be self-consistent on a
// fault-free memory, and the cut output must keep checkCut's contract.
func FuzzAssemble(f *testing.F) {
	pool := primitives(f)
	f.Add(byte(0), []byte{})
	f.Add(byte(3), []byte{0})
	f.Add(byte(6), []byte{0, 1, 2, 3})
	f.Add(byte(8), []byte{7, 3, 11, 40, 2, 19})
	f.Add(byte(12), []byte{200, 13, 77, 5, 150, 91, 33, 120})
	f.Add(byte(0), []byte{9, 9, 9, 250, 64, 128, 31, 17, 100, 42})
	f.Add(byte(10), []byte{9, 9, 9, 250, 64, 128, 31, 17, 100, 42})
	f.Fuzz(func(t *testing.T, cut byte, picks []byte) {
		if len(picks) > 12 {
			picks = picks[:12]
		}
		pats := make([]fsm.Pattern, len(picks))
		for k, b := range picks {
			pats[k] = pool[int(b)%len(pool)]
		}
		checkAgainstScalar(t)
		cands, err := Assemble(pats, DefaultOptions())
		checkCut(t, pats, cands, err, int(cut%32))
		if err != nil {
			return // empty, or no construction realises the sequence
		}
		for _, c := range cands {
			if err := sim.SelfConsistent(c); err != nil {
				t.Fatalf("candidate %s: %v", c, err)
			}
		}
	})
}
