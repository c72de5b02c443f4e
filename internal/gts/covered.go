package gts

import (
	"sync"

	"marchgen/fsm"
	"marchgen/internal/simd"
	"marchgen/march"
)

// syntheticMachine builds the canonical faulty machine whose single Basic
// Fault Effect is exactly the given test pattern: triggered in the
// pattern's initialisation state by its excitation, it corrupts the
// observed cell (or, for observation-only patterns, lies on the observing
// read). A test realises the pattern if and only if it detects this
// machine.
func syntheticMachine(p fsm.Pattern) fsm.Machine {
	flip := p.GoodObservation().Not()
	if len(p.Excite) == 0 {
		return fsm.WithDeviations("synthetic "+p.String(),
			fsm.OutputDev(p.Init, p.Observe, flip))
	}
	next := fsm.Unknown.With(p.Observe.Cell, flip)
	return fsm.WithDeviations("synthetic "+p.String(),
		fsm.TransitionDev(p.Init, p.Excite[0], next))
}

// machineTable is the process-wide table of compiled synthetic machines,
// keyed by fsm.Pattern.AppendKey. syntheticMachine reads only what
// Pattern.String renders, and equal keys mean equal String forms, so one
// entry serves every pattern with its key. Entries are immutable once
// stored and shared by every oracle; the table holds one entry per
// distinct pattern the process has assembled (the fault library has a
// few dozen).
var machineTable = struct {
	sync.RWMutex
	byKey map[string]*simd.Compiled
}{byKey: map[string]*simd.Compiled{}}

// compiledMachine returns p's compiled synthetic machine: from the
// table, or compiled once and stored on a miss.
func compiledMachine(p fsm.Pattern) *simd.Compiled {
	key := p.AppendKey(make([]byte, 0, 16))
	machineTable.RLock()
	c := machineTable.byKey[string(key)]
	machineTable.RUnlock()
	if c != nil {
		return c
	}
	c = simd.Compile(syntheticMachine(p))
	machineTable.Lock()
	defer machineTable.Unlock()
	if prev := machineTable.byKey[string(key)]; prev != nil {
		return prev // another goroutine stored it first
	}
	machineTable.byKey[string(key)] = c
	return c
}

// resolutions are the two ⇕ resolutions the oracle checks: every ⇕
// element ascending, and every ⇕ element descending. The full resolution
// enumeration is left to the caller's final validation.
var resolutions = [2]march.Order{march.Up, march.Down}

// blockLanes is one block's lane state under one resolution: the
// one-hot state planes of its 64 (pattern × initial content) lanes and
// the OR of every mismatch mask observed so far.
type blockLanes struct {
	planes [simd.NumStates]uint64
	seen   uint64
}

// snapshot is the immutable lane state of a closed prefix elems[:n] of a
// construction under both resolutions. Closed elements never change, so
// a snapshot stays valid for every descendant of the state that computed
// it, and clones share it.
type snapshot struct {
	n int
	// good is the fault-free machine state per resolution: it yields the
	// expected value of every read.
	good [len(resolutions)]uint8
	// lanes holds resolution r, block b at r·len(blocks)+b.
	lanes []blockLanes
}

// coveredHook, when non-nil, observes every coverage verdict: the
// construction closed the way the query closed it, the pattern, and the
// verdict. Tests install it to check the lane oracle against the scalar
// simulator.
var coveredHook func(t *march.Test, p fsm.Pattern, covered bool)

// oracle answers the minimisation phase's question — does the partial
// construction already realise pattern k? — on the 64-lane kernel: the
// call's synthetic pattern machines, compiled once per process (see
// machineTable), are packed 16 per block, and a query replays only the
// construction's open element from its closed-prefix snapshot.
type oracle struct {
	patterns []fsm.Pattern
	blocks   []*simd.Block
	root     *snapshot // the empty prefix
	// queries counts covered calls and advances the snapshots advance
	// built, for the gts.assemble.{queries,advances} counters.
	queries, advances int
}

// newOracle packs the patterns' compiled synthetic machines into blocks
// and sets up the empty prefix's snapshot. A block's packing follows the
// call's ordering, so blocks are built per call.
func newOracle(patterns []fsm.Pattern) (*oracle, error) {
	o := &oracle{patterns: patterns}
	for lo := 0; lo < len(patterns); lo += simd.BlockInstances {
		hi := min(lo+simd.BlockInstances, len(patterns))
		machines := make([]*simd.Compiled, 0, hi-lo)
		for _, p := range patterns[lo:hi] {
			machines = append(machines, compiledMachine(p))
		}
		b, err := simd.NewBlock(machines)
		if err != nil {
			return nil, err
		}
		o.blocks = append(o.blocks, b)
	}
	o.root = &snapshot{lanes: make([]blockLanes, len(resolutions)*len(o.blocks))}
	unknown := uint8(simd.StateIndex(fsm.Unknown))
	for r := range resolutions {
		o.root.good[r] = unknown
		for b, blk := range o.blocks {
			o.root.lanes[r*len(o.blocks)+b].planes = blk.InitPlanes()
		}
	}
	return o, nil
}

// covered reports whether st's construction realises pattern k under both
// resolutions — every initial content of the pattern's synthetic machine
// meets a mismatching read — as it stands (asIs, closed the way
// state.closed closes it) and once a trailing ⇕(r) observes its open
// element (withRead). Both answers come from one replay of the open
// element per resolution.
func (o *oracle) covered(st *state, k int) (asIs, withRead bool) {
	o.queries++
	if len(st.elems) == 0 {
		return false, false
	}
	snap := o.advance(st)
	bi := k / simd.BlockInstances
	bit := uint64(1) << (simd.LanesPerInstance * (k % simd.BlockInstances))
	blk := o.blocks[bi : bi+1]
	read := [1]march.Op{{Kind: march.Read, Data: st.end}}
	asIs, withRead = true, true
	for r, dir := range resolutions {
		ls := [1]blockLanes{snap.lanes[r*len(o.blocks)+bi]}
		if simd.NibbleAll(ls[0].seen)&bit != 0 {
			continue
		}
		g := replay(blk, ls[:], snap.good[r], st.elems[len(st.elems)-1], dir)
		plain := simd.NibbleAll(ls[0].seen)&bit != 0
		if st.end.Known() {
			replay(blk, ls[:], g, march.Element{Order: march.Any, Ops: read[:]}, dir)
		}
		closing := simd.NibbleAll(ls[0].seen)&bit != 0
		if st.needRead {
			plain = closing
		}
		asIs, withRead = asIs && plain, withRead && closing
		if !withRead {
			// A read can only add detections: asIs is false too.
			break
		}
	}
	if coveredHook != nil {
		q := *st
		coveredHook(q.closed(), o.patterns[k], asIs)
		q.needRead = true
		coveredHook(q.closed(), o.patterns[k], withRead)
	}
	return asIs, withRead
}

// advance returns the snapshot of st's closed prefix, stepping the
// inherited snapshot over the elements closed since it was taken and
// storing the result on st for its later clones.
func (o *oracle) advance(st *state) *snapshot {
	closed := len(st.elems) - 1
	prev := st.snap
	if prev.n == closed {
		return prev
	}
	o.advances++
	next := &snapshot{n: closed, good: prev.good, lanes: append([]blockLanes(nil), prev.lanes...)}
	nb := len(o.blocks)
	for r, dir := range resolutions {
		ls := next.lanes[r*nb : (r+1)*nb]
		for _, e := range st.elems[prev.n:closed] {
			next.good[r] = replay(o.blocks, ls, next.good[r], e, dir)
		}
	}
	st.snap = next
	return next
}

// replay steps the lane states ls (one per block) and the fault-free
// state g through one element under resolution dir, the way sim.Trace
// lowers it onto the cell pair (i, j): an ascending element applies its
// operations to i first, a descending one to j first, and a delay
// element is one wait symbol. It returns the new fault-free state.
func replay(blocks []*simd.Block, ls []blockLanes, g uint8, e march.Element, dir march.Order) uint8 {
	good := simd.Good()
	step := func(in uint8) {
		expect := good.Out[g][in]
		for b, blk := range blocks {
			ls[b].seen |= blk.Step(&ls[b].planes, in, expect)
		}
		g = good.Next[g][in]
	}
	if e.Delay {
		step(uint8(simd.InputIndex(fsm.Wait)))
		return g
	}
	if e.Order != march.Any {
		dir = e.Order
	}
	first := fsm.CellI
	if dir == march.Down {
		first = fsm.CellJ
	}
	for _, c := range [2]fsm.Cell{first, first.Other()} {
		for _, op := range e.Ops {
			in := fsm.Rd(c)
			if op.IsWrite() {
				in = fsm.Wr(c, op.Data)
			}
			step(uint8(simd.InputIndex(in)))
		}
	}
	return g
}
