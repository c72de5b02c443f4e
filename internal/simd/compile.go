package simd

import (
	"marchgen/fsm"
	"marchgen/march"
)

// Geometry of the compiled machine tables and of the lane packing.
const (
	// NumStates is the size of the two-cell ternary state space: each
	// cell holds 0, 1 or X, giving 3×3 states.
	NumStates = 9
	// NumInputs is the size of the input alphabet
	// {w0i, w1i, w0j, w1j, ri, rj, T}.
	NumInputs = 7
	// BlockInstances is the number of fault instances packed into one
	// 64-bit lane word (4 initial-content lanes per instance).
	BlockInstances = 16
	// LanesPerInstance is the number of lanes one instance occupies: one
	// per concrete initial content of the two model cells (00,01,10,11).
	LanesPerInstance = 4
)

// StateIndex packs a two-cell state into its table index: 3·enc(I)+enc(J)
// with the natural encoding 0→0, 1→1, X→2 (march.Bit's own values).
func StateIndex(s fsm.State) int { return 3*int(s.I) + int(s.J) }

// StateAt is the inverse of StateIndex.
func StateAt(idx int) fsm.State {
	return fsm.S(march.Bit(idx/3), march.Bit(idx%3))
}

// InputIndex packs an input symbol into its table index: w0i=0, w1i=1,
// w0j=2, w1j=3, ri=4, rj=5, T=6.
func InputIndex(in fsm.Input) int {
	switch in.Kind {
	case fsm.OpWrite:
		return 2*int(in.Cell) + int(in.Data)
	case fsm.OpRead:
		return 4 + int(in.Cell)
	default:
		return 6
	}
}

// inputAt is the inverse of InputIndex.
func inputAt(idx int) fsm.Input {
	switch {
	case idx < 4:
		return fsm.Wr(fsm.Cell(idx/2), march.Bit(idx%2))
	case idx < 6:
		return fsm.Rd(fsm.Cell(idx - 4))
	default:
		return fsm.Wait
	}
}

// Compiled is one machine lowered into dense lookup tables indexed by
// (StateIndex, InputIndex): Next is the δ table (packed state indices),
// Out is the λ table (ternary read outputs; X for writes, waits, and
// reads whose value cannot be relied upon).
type Compiled struct {
	// Name echoes the compiled machine's name for diagnostics.
	Name string
	// Next is the dense δ table.
	Next [NumStates][NumInputs]uint8
	// Out is the dense λ table.
	Out [NumStates][NumInputs]march.Bit
}

// Compile lowers a Mealy machine into its dense tables by evaluating δ
// and λ at every (state, input) point. Machines are pure functions of
// (state, input), so the tables reproduce the machine exactly.
func Compile(m fsm.Machine) *Compiled {
	c := &Compiled{Name: m.Name}
	for s := 0; s < NumStates; s++ {
		st := StateAt(s)
		for i := 0; i < NumInputs; i++ {
			in := inputAt(i)
			c.Next[s][i] = uint8(StateIndex(m.Next(st, in)))
			c.Out[s][i] = m.Output(st, in)
		}
	}
	return c
}

// good is the fault-free machine M0, compiled once: the kernel derives
// the expected value of every read from it, exactly as the scalar
// engine's guaranteed-detection semantics do.
var good = Compile(fsm.Good())

// Good returns the compiled fault-free machine M0.
func Good() *Compiled { return good }

// ExpectedOutputs walks the compiled good machine from the fully
// uninitialised state over the (index-encoded) input sequence and
// returns the fault-free output of every position: X for non-reads and
// for reads whose good value cannot be known (read before write). Reads
// with an X expected value never count as observations, mirroring the
// scalar engine. The fault simulator's evaluations lower a March test
// straight into inputs and expected outputs in one pass; EncodeTrace
// and ExpectedOutputs are the two-step form that lowering is checked
// against.
func ExpectedOutputs(inputs []uint8) []march.Bit {
	out := make([]march.Bit, len(inputs))
	s := uint8(StateIndex(fsm.Unknown))
	for k, in := range inputs {
		out[k] = good.Out[s][in]
		s = good.Next[s][in]
	}
	return out
}

// EncodeTrace converts an fsm input sequence into the kernel's index
// encoding.
func EncodeTrace(trace []fsm.Input) []uint8 {
	out := make([]uint8, len(trace))
	for k, in := range trace {
		out[k] = uint8(InputIndex(in))
	}
	return out
}
