package march

import (
	"strings"
	"testing"
)

func TestBitNot(t *testing.T) {
	cases := []struct{ in, want Bit }{
		{Zero, One},
		{One, Zero},
		{X, X},
	}
	for _, c := range cases {
		if got := c.in.Not(); got != c.want {
			t.Errorf("Not(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBitMatches(t *testing.T) {
	for _, b := range []Bit{Zero, One, X} {
		if !X.Matches(b) || !b.Matches(X) {
			t.Errorf("X must match %v in both directions", b)
		}
		if !b.Matches(b) {
			t.Errorf("%v must match itself", b)
		}
	}
	if Zero.Matches(One) || One.Matches(Zero) {
		t.Error("0 and 1 must not match")
	}
}

func TestBitKnown(t *testing.T) {
	if !Zero.Known() || !One.Known() || X.Known() {
		t.Errorf("Known: got %v %v %v", Zero.Known(), One.Known(), X.Known())
	}
}

func TestBitString(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" || X.String() != "-" {
		t.Errorf("Bit.String: %q %q %q", Zero, One, X)
	}
}

func TestBitOf(t *testing.T) {
	if BitOf(true) != One || BitOf(false) != Zero {
		t.Error("BitOf mapping wrong")
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{R0: "r0", R1: "r1", W0: "w0", W1: "w1"}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestParseOp(t *testing.T) {
	for _, s := range []string{"r0", "r1", "w0", "w1", "R0", "W1"} {
		op, err := ParseOp(s)
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", s, err)
		}
		if !strings.EqualFold(op.String(), s) {
			t.Errorf("ParseOp(%q) = %v", s, op)
		}
	}
	for _, s := range []string{"", "r", "x0", "r2", "w01"} {
		if _, err := ParseOp(s); err == nil {
			t.Errorf("ParseOp(%q): expected error", s)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !R0.IsRead() || R0.IsWrite() || !W1.IsWrite() || W1.IsRead() {
		t.Error("IsRead/IsWrite predicates wrong")
	}
}

func TestElementString(t *testing.T) {
	e := Elem(Up, R0, W1)
	if e.String() != "⇑(r0,w1)" {
		t.Errorf("element string: %q", e.String())
	}
	if DelayElement().String() != "Del" {
		t.Errorf("delay string: %q", DelayElement().String())
	}
}

func TestElementValidate(t *testing.T) {
	if err := Elem(Up).Validate(); err == nil {
		t.Error("empty element must not validate")
	}
	bad := Element{Delay: true, Ops: []Op{R0}}
	if err := bad.Validate(); err == nil {
		t.Error("delay with ops must not validate")
	}
	if err := Elem(Down, R1, W0).Validate(); err != nil {
		t.Errorf("valid element rejected: %v", err)
	}
}

func TestTestComplexity(t *testing.T) {
	mt := New(
		Elem(Any, W0),
		Elem(Up, R0, W1),
		DelayElement(),
		Elem(Down, R1, W0),
	)
	if got := mt.Complexity(); got != 5 {
		t.Errorf("Complexity = %d, want 5", got)
	}
	if mt.ComplexityLabel() != "5n" {
		t.Errorf("ComplexityLabel = %q", mt.ComplexityLabel())
	}
	if mt.Delays() != 1 {
		t.Errorf("Delays = %d, want 1", mt.Delays())
	}
	if len(mt.Ops()) != 5 {
		t.Errorf("Ops length = %d, want 5", len(mt.Ops()))
	}
}

func TestTestValidate(t *testing.T) {
	if err := (&Test{}).Validate(); err == nil {
		t.Error("empty test must not validate")
	}
	readFirst := New(Elem(Up, R0, W1))
	if err := readFirst.Validate(); err == nil {
		t.Error("read-before-write test must not validate")
	}
	ok := New(Elem(Any, W0), Elem(Up, R0))
	if err := ok.Validate(); err != nil {
		t.Errorf("valid test rejected: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"{ ⇕(w0); ⇑(r0,w1); ⇓(r1,w0) }",
		"{ ⇕(w0); Del; ⇕(r0) }",
		"{ ⇑(w1); ⇑(r1,w0,r0); ⇓(r0) }",
	}
	for _, s := range cases {
		mt, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if mt.String() != s {
			t.Errorf("round trip: %q -> %q", s, mt.String())
		}
	}
}

func TestParseASCII(t *testing.T) {
	uni, err := Parse("{ ⇕(w0); ⇑(r0,w1); ⇓(r1,w0) }")
	if err != nil {
		t.Fatal(err)
	}
	asc, err := Parse(uni.ASCII())
	if err != nil {
		t.Fatalf("Parse(ASCII): %v", err)
	}
	if !uni.Equal(asc) {
		t.Errorf("ASCII round trip: %v != %v", uni, asc)
	}
	// Single-letter orders and missing braces are accepted too.
	short, err := Parse("a(w0); u(r0,w1); d(r1,w0)")
	if err != nil {
		t.Fatalf("Parse(short): %v", err)
	}
	if !uni.Equal(short) {
		t.Errorf("short form: %v != %v", uni, short)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"{ }",
		"{ ⇕ }",
		"{ ⇕() }",
		"{ sideways(w0) }",
		"{ ⇕(x0) }",
		"{ ⇕(w0);; ⇕(r0) }",
		"{ ⇕(w0); ⇑(r0,w1 }",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestKnownLibrary(t *testing.T) {
	names := KnownNames()
	if len(names) < 10 {
		t.Fatalf("expected a rich library, got %d tests", len(names))
	}
	for _, name := range names {
		kt, ok := Known(name)
		if !ok {
			t.Fatalf("Known(%q) missing", name)
		}
		if kt.Test.Name != name {
			t.Errorf("%s: test name %q", name, kt.Test.Name)
		}
		if got := kt.Test.Complexity(); got != kt.Complexity {
			t.Errorf("%s: declared complexity %d, body has %d", name, kt.Complexity, got)
		}
		if err := kt.Test.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
		// Round-trip through the printer and parser.
		back, err := Parse(kt.Test.String())
		if err != nil {
			t.Errorf("%s: reparse: %v", name, err)
		} else if !back.Equal(kt.Test) {
			t.Errorf("%s: round trip mismatch", name)
		}
	}
	if _, ok := Known("NoSuchTest"); ok {
		t.Error("unknown name must not resolve")
	}
}

func TestKnownIsolation(t *testing.T) {
	kt, _ := Known("MATS")
	kt.Test.Elements[0].Ops[0] = R1 // mutate the copy
	again, _ := Known("MATS")
	if again.Test.Elements[0].Ops[0] != W0 {
		t.Error("library must hand out isolated copies")
	}
}

func TestSpecificKnownComplexities(t *testing.T) {
	want := map[string]int{
		"MATS": 4, "MATS+": 5, "MATS++": 6, "MarchX": 6, "MarchY": 8,
		"MarchC": 11, "MarchC-": 10, "MarchA": 15, "MarchB": 17,
		"MarchU": 13, "MarchLR": 14, "MarchSR": 14, "MarchG": 23,
		"PMOVI": 13, "ZeroOne": 4, "MarchSS": 22, "MarchRAW": 26,
	}
	for name, k := range want {
		kt, ok := Known(name)
		if !ok {
			t.Errorf("missing %s", name)
			continue
		}
		if kt.Test.Complexity() != k {
			t.Errorf("%s: complexity %d, want %d", name, kt.Test.Complexity(), k)
		}
	}
}

func TestClone(t *testing.T) {
	orig := New(Elem(Any, W0), Elem(Up, R0, W1))
	c := orig.Clone()
	c.Elements[1].Ops[0] = R1
	if orig.Elements[1].Ops[0] != R0 {
		t.Error("Clone must deep-copy ops")
	}
}

func TestWithoutOp(t *testing.T) {
	orig := New(Elem(Any, W0), Elem(Up, R0, W1), Elem(Down, R1))
	cases := []struct {
		e, o int
		want string
	}{
		{1, 0, "{ ⇕(w0); ⇑(w1); ⇓(r1) }"},
		{1, 1, "{ ⇕(w0); ⇑(r0); ⇓(r1) }"},
		{2, 0, "{ ⇕(w0); ⇑(r0,w1) }"}, // the emptied element goes
	}
	for _, c := range cases {
		if got := orig.WithoutOp(c.e, c.o).String(); got != c.want {
			t.Errorf("WithoutOp(%d, %d) = %s, want %s", c.e, c.o, got, c.want)
		}
	}
	if got := orig.String(); got != "{ ⇕(w0); ⇑(r0,w1); ⇓(r1) }" {
		t.Errorf("WithoutOp mutated the receiver: %s", got)
	}
	if got := New(Elem(Any, W0)).WithoutOp(0, 0); got != nil {
		t.Errorf("removing the last operation = %s, want nil", got)
	}
}
