package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"marchgen/fsm"
	"marchgen/internal/simd"
	"marchgen/march"
)

// selfConsistentReference is SelfConsistent on the closure machine, the
// oracle the lowering's check is compared against: per resolution, the
// fault-free machine fsm.Good is walked over Trace and every read is
// compared with the value it expects.
func selfConsistentReference(t *march.Test) error {
	if err := t.Validate(); err != nil {
		return err
	}
	resolutions, err := Resolutions(t)
	if err != nil {
		return err
	}
	good := fsm.Good()
	ops := t.Ops()
	for _, res := range resolutions {
		trace, positions := Trace(t, res)
		s := fsm.Unknown
		for k, in := range trace {
			if in.IsRead() {
				got := good.Output(s, in)
				want := ops[positions[k]].Data
				if got != want {
					return fmt.Errorf("sim: test %s is inconsistent: operation %d (%s) reads %s on a fault-free memory",
						t, positions[k], ops[positions[k]], got)
				}
			}
			s = good.Next(s, in)
		}
	}
	return nil
}

// fuzzOrders maps the low two bits of an element header to its kind;
// the last entry marks a delay element.
var fuzzOrders = [4]march.Order{march.Up, march.Down, march.Any, march.Any}

// fuzzMaxElements bounds a decoded test, so the 2^k ⇕ resolutions stay
// cheap to enumerate.
const fuzzMaxElements = 10

// decodeFuzzTest builds a March test from fuzz bytes: each element is a
// header byte (low two bits: ⇑, ⇓, ⇕ or delay; the rest, mod 9: the
// operation count) followed by one byte per operation (bit 0: read,
// bit 1: data one). A delay element may carry operations and any
// element may have none, so structurally invalid tests occur too.
func decodeFuzzTest(data []byte) *march.Test {
	t := &march.Test{}
	for len(data) > 0 && len(t.Elements) < fuzzMaxElements {
		h := data[0]
		data = data[1:]
		e := march.Element{Order: fuzzOrders[h&3], Delay: h&3 == 3}
		for n := int(h>>2) % 9; n > 0 && len(data) > 0; n-- {
			op := march.Op{Kind: march.Write, Data: march.BitOf(data[0]&2 != 0)}
			if data[0]&1 != 0 {
				op.Kind = march.Read
			}
			e.Ops = append(e.Ops, op)
			data = data[1:]
		}
		t.Elements = append(t.Elements, e)
	}
	return t
}

// encodeFuzzTest is the inverse of decodeFuzzTest for tests of at most
// fuzzMaxElements elements with at most 8 operations each.
func encodeFuzzTest(t *march.Test) []byte {
	var out []byte
	for _, e := range t.Elements {
		h := byte(len(e.Ops)) << 2
		switch {
		case e.Delay:
			h |= 3
		case e.Order == march.Down:
			h |= 1
		case e.Order == march.Any:
			h |= 2
		}
		out = append(out, h)
		for _, op := range e.Ops {
			var b byte
			if op.IsRead() {
				b |= 1
			}
			if op.Data == march.One {
				b |= 2
			}
			out = append(out, b)
		}
	}
	return out
}

// checkLowering compares the lowering of t with Trace, EncodeTrace and
// ExpectedOutputs per resolution, and its check with the closure-walk
// reference.
func checkLowering(t *testing.T, mt *march.Test) {
	t.Helper()
	want := selfConsistentReference(mt)
	got := SelfConsistent(mt)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: SelfConsistent = %v, reference %v", mt, got, want)
	}
	resolutions, err := Resolutions(mt)
	if err != nil {
		return
	}
	lw, err := lower(mt, resolutions, false)
	if err != nil {
		t.Fatalf("%s: unchecked lowering failed: %v", mt, err)
	}
	if len(lw.traces) != len(resolutions) || !reflect.DeepEqual(lw.resolutions, resolutions) {
		t.Fatalf("%s: %d traces for %d resolutions", mt, len(lw.traces), len(resolutions))
	}
	if lw.numOps != len(mt.Ops()) {
		t.Fatalf("%s: numOps %d, want %d", mt, lw.numOps, len(mt.Ops()))
	}
	for r, res := range resolutions {
		trace, positions := Trace(mt, res)
		inputs := simd.EncodeTrace(trace)
		if !slices.Equal(lw.traces[r].inputs, inputs) {
			t.Fatalf("%s res %d: inputs %v, want %v", mt, r, lw.traces[r].inputs, inputs)
		}
		if expect := simd.ExpectedOutputs(inputs); !slices.Equal(lw.traces[r].expect, expect) {
			t.Fatalf("%s res %d: expected outputs %v, want %v", mt, r, lw.traces[r].expect, expect)
		}
		if !slices.Equal(lw.positions, positions) {
			t.Fatalf("%s res %d: positions %v, want %v", mt, r, lw.positions, positions)
		}
	}
	if want != nil {
		return
	}
	checked, err := lowerChecked(mt)
	if err != nil {
		t.Fatalf("%s: checked lowering failed on a consistent test: %v", mt, err)
	}
	if !reflect.DeepEqual(checked, lw) {
		t.Fatalf("%s: checked and unchecked lowerings differ", mt)
	}
}

// FuzzLower checks the one-pass kernel lowering against the two-step
// form: for tests decoded from the fuzz bytes (delay and ⇕ elements,
// inconsistent reads, malformed elements), every resolution's inputs,
// expected outputs and positions equal Trace + EncodeTrace +
// ExpectedOutputs, and SelfConsistent returns the closure-walk
// reference's error, text for text. The seeds are every library test
// and each of its one-op removals.
func FuzzLower(f *testing.F) {
	seed := func(mt *march.Test) {
		b := encodeFuzzTest(mt)
		if got := decodeFuzzTest(b); !got.Equal(mt) {
			f.Fatalf("seed %s decodes as %s", mt, got)
		}
		f.Add(b)
	}
	for _, name := range march.KnownNames() {
		kt, _ := march.Known(name)
		seed(kt.Test)
		for e := range kt.Test.Elements {
			for o := range kt.Test.Elements[e].Ops {
				if cand := kt.Test.WithoutOp(e, o); cand != nil {
					seed(cand)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLowering(t, decodeFuzzTest(data))
	})
}
