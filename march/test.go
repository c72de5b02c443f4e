package march

import (
	"fmt"
	"strings"
)

// Test is a complete March test: a name (optional) and a sequence of March
// elements, e.g. MATS+ = { ⇕(w0); ⇑(r0,w1); ⇓(r1,w0) }.
type Test struct {
	// Name is the test's conventional name; empty for generated tests.
	Name string
	// Elements is the ordered element sequence between the braces.
	Elements []Element
}

// New builds an unnamed March test from elements.
func New(elems ...Element) *Test { return &Test{Elements: elems} }

// Named builds a named March test from elements.
func Named(name string, elems ...Element) *Test {
	return &Test{Name: name, Elements: elems}
}

// Complexity returns the total number of memory operations per cell — the
// k of the conventional "kn" complexity measure (MATS+ has complexity 5,
// reported as 5n). Delay elements contribute zero.
func (t *Test) Complexity() int {
	n := 0
	for _, e := range t.Elements {
		n += e.Complexity()
	}
	return n
}

// ComplexityLabel returns the conventional complexity string, e.g. "5n".
func (t *Test) ComplexityLabel() string {
	return fmt.Sprintf("%dn", t.Complexity())
}

// Ops returns the flattened operation sequence of the test (delay elements
// contribute nothing). The slice is freshly allocated.
func (t *Test) Ops() []Op {
	var ops []Op
	for _, e := range t.Elements {
		ops = append(ops, e.Ops...)
	}
	return ops
}

// Delays returns the number of delay elements in the test.
func (t *Test) Delays() int {
	n := 0
	for _, e := range t.Elements {
		if e.Delay {
			n++
		}
	}
	return n
}

// Validate reports the first structural problem of the test: an empty test,
// a malformed element, or a read-before-write hazard (an element sequence
// whose first access to memory is a read, so the expected value is
// undefined on an uninitialised memory).
func (t *Test) Validate() error {
	if t == nil || len(t.Elements) == 0 {
		return fmt.Errorf("march: empty test")
	}
	for i, e := range t.Elements {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("march: element %d: %w", i, err)
		}
	}
	for _, e := range t.Elements {
		if e.Delay {
			continue
		}
		if e.Ops[0].IsRead() {
			return fmt.Errorf("march: test reads before any write (first operation %s)", e.Ops[0])
		}
		break
	}
	return nil
}

// Equal reports structural equality (ignoring names).
func (t *Test) Equal(u *Test) bool {
	if t == nil || u == nil {
		return t == u
	}
	if len(t.Elements) != len(u.Elements) {
		return false
	}
	for i := range t.Elements {
		if !t.Elements[i].Equal(u.Elements[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the test.
func (t *Test) Clone() *Test {
	c := &Test{Name: t.Name, Elements: make([]Element, len(t.Elements))}
	for i, e := range t.Elements {
		c.Elements[i] = Element{Order: e.Order, Delay: e.Delay, Ops: append([]Op(nil), e.Ops...)}
	}
	return c
}

// WithoutOp returns a copy of the test without operation o of element e,
// dropping the element when that was its only operation. It returns nil
// when no element is left.
func (t *Test) WithoutOp(e, o int) *Test {
	c := t.Clone()
	elem := &c.Elements[e]
	elem.Ops = append(elem.Ops[:o], elem.Ops[o+1:]...)
	if len(elem.Ops) == 0 {
		c.Elements = append(c.Elements[:e], c.Elements[e+1:]...)
	}
	if len(c.Elements) == 0 {
		return nil
	}
	return c
}

// String renders the test in conventional notation:
//
//	{ ⇕(w0); ⇑(r0,w1); ⇓(r1,w0) }
func (t *Test) String() string {
	var b strings.Builder
	b.WriteString("{ ")
	for i, e := range t.Elements {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(e.String())
	}
	b.WriteString(" }")
	return b.String()
}

// ASCII renders the test using only 7-bit characters, using the up/down/any
// keywords accepted by Parse:
//
//	{ any(w0); up(r0,w1); down(r1,w0) }
func (t *Test) ASCII() string {
	var b strings.Builder
	b.WriteString("{ ")
	for i, e := range t.Elements {
		if i > 0 {
			b.WriteString("; ")
		}
		if e.Delay {
			b.WriteString("Del")
			continue
		}
		b.WriteString(e.Order.ASCII())
		b.WriteByte('(')
		for j, op := range e.Ops {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(op.String())
		}
		b.WriteByte(')')
	}
	b.WriteString(" }")
	return b.String()
}
