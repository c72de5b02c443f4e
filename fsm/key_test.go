package fsm_test

import (
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/march"
)

// keyPatterns returns every BFE pattern of every library model plus
// hand-built variants: an Observe read with Data 0 (rendered like a plain
// read), a wait excitation with and without a cell, a two-op excitation,
// X bits in Init, and a pattern that observes an unknown value.
func keyPatterns(t *testing.T) []fsm.Pattern {
	t.Helper()
	var out []fsm.Pattern
	for _, name := range fault.ModelNames() {
		m, err := fault.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range fault.Instances([]fault.Model{m}) {
			for _, b := range inst.BFEs {
				out = append(out, b.Pattern)
			}
		}
	}
	zero, one, x := march.Zero, march.One, march.X
	i, j := fsm.CellI, fsm.CellJ
	readJ0 := fsm.Input{Kind: fsm.OpRead, Cell: j, Data: zero}
	waitJ := fsm.Input{Kind: fsm.OpWait, Cell: j, Data: x}
	return append(out,
		fsm.NewPattern(fsm.S(zero, one), nil, fsm.Rd(j)),
		fsm.NewPattern(fsm.S(zero, one), nil, readJ0),
		fsm.NewPattern(fsm.S(one, x), []fsm.Input{fsm.Wait}, fsm.Rd(i)),
		fsm.NewPattern(fsm.S(one, x), []fsm.Input{waitJ}, fsm.Rd(i)),
		fsm.NewPattern(fsm.S(x, x), []fsm.Input{fsm.Wr(i, one), fsm.Wr(j, zero)}, fsm.Rd(j)),
		fsm.NewPattern(fsm.S(x, x), []fsm.Input{fsm.Wr(i, one), fsm.Rd(i)}, fsm.Rd(i)),
		fsm.NewPattern(fsm.S(x, x), []fsm.Input{fsm.Wr(i, one), readJ0}, fsm.Rd(i)),
		fsm.NewPattern(fsm.S(x, zero), []fsm.Input{fsm.Wr(i, one)}, fsm.Rd(j)),
		fsm.NewPattern(fsm.S(x, x), []fsm.Input{fsm.Wr(i, one)}, fsm.Rd(j)),
		fsm.NewPattern(fsm.S(x, x), []fsm.Input{fsm.Wr(i, x)}, fsm.Rd(j)),
	)
}

// TestAppendKeyMatchesString checks that AppendKey keys are equal exactly
// when the String forms are, and that concatenated keys of two pattern
// pairs differ whenever the pairs' String forms do.
func TestAppendKeyMatchesString(t *testing.T) {
	ps := keyPatterns(t)
	keys := make([]string, len(ps))
	for k, p := range ps {
		keys[k] = string(p.AppendKey(nil))
	}
	shared := 0
	for a := range ps {
		for b := range ps {
			sameKey, sameString := keys[a] == keys[b], ps[a].String() == ps[b].String()
			if sameKey != sameString {
				t.Fatalf("%s and %s: equal keys %v, equal strings %v", ps[a], ps[b], sameKey, sameString)
			}
			if a != b && sameKey {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two distinct pattern values share a key: the unrendered fields were never exercised")
	}
	pairs := map[string][2]string{}
	for a := range ps {
		for b := range ps {
			cat := string(ps[b].AppendKey(ps[a].AppendKey(nil)))
			want := [2]string{ps[a].String(), ps[b].String()}
			if got, ok := pairs[cat]; ok && got != want {
				t.Fatalf("pairs %q and %q share the concatenated key %x", got, want, cat)
			}
			pairs[cat] = want
		}
	}
}
