package fsm

import (
	"encoding/binary"
	"fmt"

	"marchgen/march"
)

// Pattern is a Test Pattern in the paper's sense (f.2.3): a triplet
// TP = (I, E, O) of an initialisation state, an exciting operation sequence
// and an observing read. Applying the pattern means: drive the memory to
// state I, apply E, then perform the read O and verify that it returns the
// fault-free value.
type Pattern struct {
	// Init is the initialisation state; X bits are don't-cares.
	Init State
	// Excite is the exciting operation sequence. It is empty for state
	// faults that are excited by the initialisation itself, a single
	// write or read for most faults, and {Wait} for retention faults.
	Excite []Input
	// Observe is the observing read.
	Observe Input
}

// NewPattern builds a pattern, copying the excitation sequence.
func NewPattern(init State, excite []Input, observe Input) Pattern {
	return Pattern{Init: init, Excite: append([]Input(nil), excite...), Observe: observe}
}

// Validate reports structural problems: a non-read observation, a non-read
// non-write non-wait excitation, or an observation whose fault-free value
// is not defined by the pattern (read of a cell that is neither initialised
// nor written).
func (p Pattern) Validate() error {
	if !p.Observe.IsRead() {
		return fmt.Errorf("fsm: pattern observation %s is not a read", p.Observe)
	}
	if !p.GoodObservation().Known() {
		return fmt.Errorf("fsm: pattern %s observes a cell with unknown fault-free value", p)
	}
	return nil
}

// ObserveState returns the fault-free memory state at the moment the
// observing read is applied (the "observation state" S_S used as the source
// state of TPG edge weights). Don't-care bits of Init stay X.
func (p Pattern) ObserveState() State {
	s := p.Init
	for _, in := range p.Excite {
		s = goodNext(s, in)
	}
	return s
}

// GoodObservation returns the value the observing read returns on the
// fault-free memory, i.e. the d of the paper's read-and-verify operation
// r_d. It is X when the pattern under-constrains the observed cell.
func (p Pattern) GoodObservation() march.Bit {
	return goodOutput(p.ObserveState(), p.Observe)
}

// InitWrites returns the writes establishing the concrete bits of Init,
// cell i first.
func (p Pattern) InitWrites() []Input {
	var seq []Input
	if p.Init.I.Known() {
		seq = append(seq, Wr(CellI, p.Init.I))
	}
	if p.Init.J.Known() {
		seq = append(seq, Wr(CellJ, p.Init.J))
	}
	return seq
}

// Sequence flattens the pattern into a standalone input sequence:
// initialisation writes, excitation, observation.
func (p Pattern) Sequence() []Input {
	seq := p.InitWrites()
	seq = append(seq, p.Excite...)
	return append(seq, p.Observe)
}

// EstablishedSequence is like Sequence but drives each concrete bit of the
// initialisation state through an explicit transition (write the
// complement, then the value). This guards the initialisation against
// faults that are excited by a non-transition write — e.g. a write
// destructive fault, where a naive "w0 to make the cell 0" is itself the
// excitation and the subsequent exciting write repairs the corruption.
func (p Pattern) EstablishedSequence() []Input {
	var seq []Input
	for _, c := range Cells() {
		if v := p.Init.Get(c); v.Known() {
			seq = append(seq, Wr(c, v.Not()), Wr(c, v))
		}
	}
	seq = append(seq, p.Excite...)
	return append(seq, p.Observe)
}

// DetectsPattern reports whether the pattern, applied as a standalone
// sequence, is guaranteed to detect the faulty machine m at its observing
// read, for every possible initial memory content.
func DetectsPattern(m Machine, p Pattern) bool {
	return detectsAtLastRead(m, p.Sequence())
}

// DetectsPatternEstablished is DetectsPattern with the transition-
// established initialisation of EstablishedSequence.
func DetectsPatternEstablished(m Machine, p Pattern) bool {
	return detectsAtLastRead(m, p.EstablishedSequence())
}

func detectsAtLastRead(m Machine, seq []Input) bool {
	for _, k := range DetectingReads(m, seq) {
		if k == len(seq)-1 {
			return true
		}
	}
	return false
}

// AppendKey appends a compact binary key of the pattern to dst and
// returns the extended slice. The key encodes exactly what String
// renders: Init's two bits, the excitation length, then each excitation
// op and finally Observe, an op being its kind, its cell for reads and
// writes, and its data for writes. Two patterns have equal keys if and
// only if their String forms are equal, and the encoding is
// self-delimiting, so concatenated keys of pattern sequences are equal
// only when the sequences' keys are. Keys are for in-memory lookups: the
// encoding is not stable across versions and must not be persisted.
func (p Pattern) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(append(dst, byte(p.Init.I), byte(p.Init.J)), uint64(len(p.Excite)))
	for _, in := range p.Excite {
		dst = in.appendKey(dst)
	}
	return p.Observe.appendKey(dst)
}

// appendKey appends the input's part of a pattern key: the fields String
// renders. A read's data and a wait's cell and data are not rendered.
func (in Input) appendKey(dst []byte) []byte {
	dst = append(dst, byte(in.Kind))
	switch in.Kind {
	case OpRead:
		return append(dst, byte(in.Cell))
	case OpWrite:
		return append(dst, byte(in.Cell), byte(in.Data))
	}
	return dst
}

// String renders the pattern in the paper's triplet notation, e.g.
// "(01, w1i, r1j)".
func (p Pattern) String() string {
	e := "ε"
	if len(p.Excite) > 0 {
		e = Sequence(p.Excite)
	}
	obs := p.Observe.String()
	if d := p.GoodObservation(); d.Known() {
		// Annotate the read with the expected value: r1j.
		obs = "r" + d.String() + p.Observe.Cell.String()
	}
	return "(" + p.Init.String() + ", " + e + ", " + obs + ")"
}
