package sim

import (
	"fmt"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/simd"
	"marchgen/march"
)

// Memory is a simulated n-cell one-bit-per-cell RAM with at most one
// injected fault instance (the customary single-fault assumption of memory
// testing). Cell values are ternary: X models an uninitialised cell.
// Faulty accesses run on the instance's machine compiled into dense LUTs
// (see internal/simd), not on the closure form, so the per-operation cost
// is two table lookups.
type Memory struct {
	cells []march.Bit
	flt   *PlacedFault
	lut   *simd.Compiled
	// pair is the packed state index of the two placed cells, kept in
	// sync with cells so faulty accesses never re-derive it.
	pair uint8
}

// PlacedFault is a fault instance bound to concrete memory addresses: the
// instance's model cell i is placed at address A and cell j at address B.
// Every access to A or B is routed through the instance's faulty two-cell
// machine, so the n-cell behaviour is exactly the instance's behaviour.
type PlacedFault struct {
	Instance fault.Instance
	A, B     int
}

// NewMemory builds an n-cell memory, optionally with a placed fault.
// The initial content of every cell is X (uninitialised).
func NewMemory(n int, flt *PlacedFault) (*Memory, error) {
	return newMemory(n, flt, nil)
}

// newMemory is NewMemory with the placed fault's machine optionally
// compiled already, so the runs of one instance share one compilation;
// a nil lut is compiled here, once the placement checks pass.
func newMemory(n int, flt *PlacedFault, lut *simd.Compiled) (*Memory, error) {
	if n < 2 {
		return nil, fmt.Errorf("sim: memory needs at least 2 cells, got %d", n)
	}
	if flt != nil {
		if flt.A == flt.B || flt.A < 0 || flt.B < 0 || flt.A >= n || flt.B >= n {
			return nil, fmt.Errorf("sim: fault placement (%d,%d) out of range for %d cells", flt.A, flt.B, n)
		}
	}
	cells := make([]march.Bit, n)
	for k := range cells {
		cells[k] = march.X
	}
	m := &Memory{cells: cells, flt: flt, lut: lut}
	if flt != nil {
		if m.lut == nil {
			m.lut = simd.Compile(flt.Instance.Machine)
		}
		m.pair = uint8(simd.StateIndex(fsm.S(cells[flt.A], cells[flt.B])))
	}
	return m, nil
}

// Size returns the number of cells.
func (m *Memory) Size() int { return len(m.cells) }

// SetCell forces the content of a cell — used to enumerate initial memory
// contents.
func (m *Memory) SetCell(addr int, v march.Bit) {
	m.cells[addr] = v
	if m.flt != nil && (addr == m.flt.A || addr == m.flt.B) {
		m.pair = uint8(simd.StateIndex(fsm.S(m.cells[m.flt.A], m.cells[m.flt.B])))
	}
}

// Cell returns the raw stored content of a cell (bypassing the fault's
// read behaviour).
func (m *Memory) Cell(addr int) march.Bit { return m.cells[addr] }

// storePair writes the packed two-cell state back to the placed cells.
func (m *Memory) storePair(idx uint8) {
	m.pair = idx
	s := simd.StateAt(int(idx))
	m.cells[m.flt.A] = s.I
	m.cells[m.flt.B] = s.J
}

// inputOf maps an access to a faulty address to the LUT input index.
func (m *Memory) inputOf(addr int, write bool, data march.Bit) (int, bool) {
	if m.flt == nil {
		return 0, false
	}
	var cell int
	switch addr {
	case m.flt.A:
		cell = int(fsm.CellI)
	case m.flt.B:
		cell = int(fsm.CellJ)
	default:
		return 0, false
	}
	if write {
		return 2*cell + int(data), true
	}
	return 4 + cell, true
}

// Write stores data at addr, routing through the fault machine's LUT when
// the address is involved in the fault.
func (m *Memory) Write(addr int, data march.Bit) {
	if in, ok := m.inputOf(addr, true, data); ok {
		m.storePair(m.lut.Next[m.pair][in])
		return
	}
	m.cells[addr] = data
}

// Read returns the value sensed at addr, applying the fault machine's read
// output and read side effects (via the compiled LUTs) when the address is
// involved in the fault.
func (m *Memory) Read(addr int) march.Bit {
	if in, ok := m.inputOf(addr, false, march.X); ok {
		out := m.lut.Out[m.pair][in]
		m.storePair(m.lut.Next[m.pair][in])
		return out
	}
	return m.cells[addr]
}

// Delay applies the wait symbol T (a Del March element): only the fault
// machine reacts (e.g. a data-retention leak).
func (m *Memory) Delay() {
	if m.flt == nil {
		return
	}
	m.storePair(m.lut.Next[m.pair][simd.NumInputs-1])
}

// RunMarch executes the March test on the memory under a concrete order
// resolution and returns the indices (into the flattened operation list of
// the test) of the read operations that observed a mismatch on at least one
// address. The memory is mutated.
func (m *Memory) RunMarch(t *march.Test, res []march.Order) []int {
	numOps := len(t.Ops())
	mismatched := make([]bool, numOps)
	opBase := 0
	for k, e := range t.Elements {
		if e.Delay {
			m.Delay()
			continue
		}
		for a := 0; a < m.Size(); a++ {
			addr := a
			if res[k] == march.Down {
				addr = m.Size() - 1 - a
			}
			for o, op := range e.Ops {
				if op.IsWrite() {
					m.Write(addr, op.Data)
					continue
				}
				got := m.Read(addr)
				if got.Known() && got != op.Data {
					mismatched[opBase+o] = true
				}
			}
		}
		opBase += len(e.Ops)
	}
	var out []int
	for op, hit := range mismatched {
		if hit {
			out = append(out, op)
		}
	}
	return out
}
