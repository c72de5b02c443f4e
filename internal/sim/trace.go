// Package sim is the memory fault simulator used to validate generated
// March tests — the reproduction of the "ad hoc memory fault simulator" of
// the paper's Section 6. It provides two independent engines that the test
// suite cross-checks against each other:
//
//   - a two-cell engine that reduces a March test to the input trace it
//     induces on an (aggressor, victim) cell pair and applies the
//     guaranteed-detection semantics of package fsm, and
//   - an n-cell engine that executes the March test operation by operation
//     on a simulated memory array with an injected fault instance.
//
// Detection is always quantified over every possible initial memory content
// of the involved cells and every resolution of ⇕ (order-irrelevant) March
// elements, so a reported detection is a guarantee, not a possibility.
package sim

import (
	"fmt"

	"marchgen/fsm"
	"marchgen/march"
)

// maxAnyElements bounds the 2^k enumeration of ⇕ resolutions.
const maxAnyElements = 16

// Resolutions enumerates every assignment of concrete addressing orders to
// the test's elements: ⇑/⇓ elements keep their order, each ⇕ element is
// expanded to both. The first resolution is the all-ascending one.
func Resolutions(t *march.Test) ([][]march.Order, error) {
	anyIdx := []int{}
	base := make([]march.Order, len(t.Elements))
	for k, e := range t.Elements {
		base[k] = e.Order
		if e.Order == march.Any && !e.Delay {
			anyIdx = append(anyIdx, k)
		}
		if e.Delay {
			base[k] = march.Up // irrelevant for delay elements
		}
	}
	if len(anyIdx) > maxAnyElements {
		return nil, fmt.Errorf("sim: %d ⇕ elements exceed the resolution bound %d", len(anyIdx), maxAnyElements)
	}
	count := 1 << len(anyIdx)
	out := make([][]march.Order, 0, count)
	for mask := 0; mask < count; mask++ {
		res := append([]march.Order(nil), base...)
		for b, k := range anyIdx {
			if mask&(1<<b) == 0 {
				res[k] = march.Up
			} else {
				res[k] = march.Down
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// Trace returns the two-cell input sequence a March test induces on a cell
// pair (i, j) with address(i) < address(j), under the given order
// resolution: an ascending element applies its operations to i first, a
// descending one to j first, and a delay element contributes one wait
// symbol. The returned positions map each trace input back to the index of
// its operation in the flattened test (delay elements yield -1).
func Trace(t *march.Test, res []march.Order) (trace []fsm.Input, positions []int) {
	opBase := 0
	for k, e := range t.Elements {
		if e.Delay {
			trace = append(trace, fsm.Wait)
			positions = append(positions, -1)
			continue
		}
		first, second := fsm.CellI, fsm.CellJ
		if res[k] == march.Down {
			first, second = fsm.CellJ, fsm.CellI
		}
		for _, c := range [2]fsm.Cell{first, second} {
			for o, op := range e.Ops {
				trace = append(trace, toInput(op, c))
				positions = append(positions, opBase+o)
			}
		}
		opBase += len(e.Ops)
	}
	return trace, positions
}

// toInput converts a March operation applied to a model cell into an fsm
// input (the expected value of reads is defined by the good machine, not
// carried by the input).
func toInput(op march.Op, c fsm.Cell) fsm.Input {
	if op.IsRead() {
		return fsm.Rd(c)
	}
	return fsm.Wr(c, op.Data)
}

// SelfConsistent checks that the test's read-and-verify operations expect
// exactly what the fault-free memory returns — e.g. that a ⇑(r0,w1)
// element is not applied to memory holding ones. A test failing this check
// would flag a good memory as faulty. It validates the test, enumerates
// its ⇕ resolutions and lowers each into kernel form, reading every
// read's fault-free value off the compiled good machine; the error names
// the first failing read in resolution order, then trace order.
func SelfConsistent(t *march.Test) error {
	_, err := lowerChecked(t)
	return err
}
