package gts

import (
	"fmt"
	"slices"

	"marchgen/fsm"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
	"marchgen/march"
)

// Options tunes the assembler.
type Options struct {
	// BeamWidth bounds the number of partial constructions kept per step.
	BeamWidth int
	// MaxCandidates bounds the number of finished tests returned.
	MaxCandidates int
}

// DefaultOptions returns the assembler defaults.
func DefaultOptions() Options { return Options{BeamWidth: 48, MaxCandidates: 12} }

// state is a partial March construction: a list of elements of which the
// last one is still open for appends, plus the uniform memory value before
// (pre) and after (end) the open element's operations. Closed elements
// (all but the last) are never mutated, so clones share them.
type state struct {
	elems    []march.Element
	pre, end march.Bit
	leadRead bool // the open element starts with a read-and-verify
	needRead bool // excitations are pending a future leading read
	// locked marks an open element whose closing value is load-bearing (a
	// case-(ii) pair realisation): further appends must first open a new
	// element instead of growing it.
	locked bool
	cost   int
	// snap is the coverage oracle's lane snapshot of a prefix of the
	// closed elements (see oracle.advance).
	snap *snapshot
}

// clone returns a copy of the state that shares the closed elements and
// owns a private copy of the open one, so appending to or mutating the
// clone never changes st.
func (st *state) clone() *state {
	c := *st
	n := len(st.elems)
	c.elems = append([]march.Element(nil), st.elems...)
	if n > 0 {
		c.elems[n-1].Ops = append([]march.Op(nil), st.elems[n-1].Ops...)
	}
	return &c
}

// appendKey appends the beam deduplication signature to buf: a
// fixed-width binary packing of the construction. Each element
// contributes a header byte with the high bit set (order and delay in the
// low bits) followed by one byte per op (kind and data in the low bits,
// high bit clear, so headers self-delimit); a trailing 0xFF marks a
// pending observation.
func (st *state) appendKey(buf []byte) []byte {
	for _, e := range st.elems {
		h := byte(0x80) | byte(e.Order)<<1
		if e.Delay {
			h |= 1
		}
		buf = append(buf, h)
		for _, op := range e.Ops {
			buf = append(buf, byte(op.Kind)<<2|byte(op.Data))
		}
	}
	if st.needRead {
		buf = append(buf, 0xFF)
	}
	return buf
}

// closed finalises the construction into a March test that shares no
// memory with the state: pending excitations get their observing read as
// a trailing ⇕(r) element.
func (st *state) closed() *march.Test {
	elems := make([]march.Element, len(st.elems), len(st.elems)+1)
	for k, e := range st.elems {
		elems[k] = march.Element{Order: e.Order, Delay: e.Delay, Ops: append([]march.Op(nil), e.Ops...)}
	}
	if st.needRead && st.end.Known() {
		elems = append(elems, march.Elem(march.Any, march.Op{Kind: march.Read, Data: st.end}))
	}
	return &march.Test{Elements: elems}
}

// appendOp appends an operation to the open element (creating the initial
// element when none exists, and opening a fresh element when the current
// one is locked). Read appends require the chain value to match.
func (st *state) appendOp(op march.Op) bool {
	if st.locked && !st.open(march.Any) {
		return false
	}
	if op.IsRead() && st.end != op.Data {
		return false
	}
	if len(st.elems) == 0 {
		if op.IsRead() {
			return false
		}
		st.elems = append(st.elems, march.Element{Order: march.Any, Ops: newOps()})
		st.pre, st.end, st.leadRead = march.X, march.X, false
	}
	last := &st.elems[len(st.elems)-1]
	if last.Delay {
		return false
	}
	last.Ops = append(last.Ops, op)
	if op.IsWrite() {
		st.end = op.Data
	}
	st.cost++
	return true
}

// newOps returns an empty op list for a new element, with room for the
// few operations a template appends to it.
func newOps() []march.Op { return make([]march.Op, 0, 4) }

// drive makes the open element's chain value equal v (appending a write if
// needed). It reports failure only when v is unknown.
func (st *state) drive(v march.Bit) bool {
	if !v.Known() || st.end == v {
		return true
	}
	return st.appendOp(march.Op{Kind: march.Write, Data: v})
}

// open closes the current element and starts a new one leading with a
// read-and-verify of the memory's uniform value, which observes every
// pending excitation.
func (st *state) open(dir march.Order) bool {
	if !st.end.Known() || len(st.elems) == 0 {
		return false
	}
	st.elems = append(st.elems, march.Element{Order: dir, Ops: append(newOps(), march.Op{Kind: march.Read, Data: st.end})})
	st.pre = st.end
	st.leadRead = true
	st.needRead = false
	st.locked = false
	st.cost++
	return true
}

// forceDir constrains the open element's addressing order, failing on
// conflict.
func (st *state) forceDir(dir march.Order) bool {
	if len(st.elems) == 0 {
		return false
	}
	last := &st.elems[len(st.elems)-1]
	if last.Order == march.Any {
		last.Order = dir
		return true
	}
	return last.Order == dir
}

// delay closes the current element with a Del element (the wait symbol T).
func (st *state) delay() bool {
	if len(st.elems) == 0 || !st.end.Known() {
		return false
	}
	st.elems = append(st.elems, march.DelayElement())
	return true
}

// deferRead leaves the open element's excitation to be observed by a
// future leading read, locking the element so later appends cannot
// overwrite the pending corruption first.
func (st *state) deferRead() bool {
	st.needRead, st.locked = true, true
	return true
}

// WithDefaults fills every non-positive field from DefaultOptions, field
// by field.
func (o Options) WithDefaults() Options {
	def := DefaultOptions()
	if o.BeamWidth <= 0 {
		o.BeamWidth = def.BeamWidth
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = def.MaxCandidates
	}
	return o
}

// Assemble converts the ordered test patterns of an optimal TPG visit into
// candidate March tests, cheapest first. Every returned test realises all
// patterns structurally; the caller must still validate fault coverage
// against the real fault machines.
func Assemble(patterns []fsm.Pattern, opts Options) ([]*march.Test, error) {
	return AssembleMeter(nil, patterns, opts, 0)
}

// AssembleMeter is Assemble under a budget meter and a cut: the beam
// aborts with a typed error when the caller's context is canceled (nil
// meter: unbounded), and keeps only constructions of fewer than cut
// operations (0: no cut). Non-positive option fields take their defaults
// (Options.WithDefaults).
//
// A construction's cost never falls along the beam and its closed test
// adds at most one trailing read, so the output under a cut is the prefix
// of the uncut output that holds every test of complexity below cut, and
// no test in it exceeds cut. When no construction is left under the cut
// the call returns no candidates and no error.
func AssembleMeter(mt *budget.Meter, patterns []fsm.Pattern, opts Options, cut int) ([]*march.Test, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("gts: no patterns to assemble")
	}
	opts = opts.WithDefaults()
	shapes := make([]shape, len(patterns))
	for k, p := range patterns {
		s, err := normalise(p)
		if err != nil {
			return nil, err
		}
		shapes[k] = s
	}
	orc, err := newOracle(patterns)
	if err != nil {
		return nil, err
	}
	x := &expander{oracle: orc, seen: map[string]bool{}, cut: cut}
	defer x.publish(mt)
	beam := []*state{{pre: march.X, end: march.X, snap: orc.root}}
	for k, s := range shapes {
		if beam, err = x.step(mt, beam, k, s, opts.BeamWidth); err != nil {
			return nil, err
		}
		if len(beam) == 0 {
			x.empty = true
			return nil, nil // nothing under the cut
		}
	}
	var out []*march.Test
	seen := map[string]bool{}
	for _, st := range beam {
		t := st.closed()
		sig := t.String()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, t)
		if len(out) >= opts.MaxCandidates {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gts: assembly produced no candidates")
	}
	return out, nil
}

// successor is one way to extend a beam state by the current pattern. It
// is recorded, not built: most successors fall to the prune, so only the
// survivors become states of their own.
type successor struct {
	parent  int // beam index of the extended state
	rewrite int // index into expander.rewrites, or keepAsIs / keepDeferred
	// lo and hi delimit the deduplication signature in expander.keys.
	lo, hi int
}

// The minimisation successors, which add no operation to their parent.
const (
	keepAsIs     = -1 // the parent already realises the pattern
	keepDeferred = -2 // it does once a leading read observes its open element
)

// expander runs one assembly call's beam steps. Rewrites run on a
// reusable scratch copy of the beam state, so recording a successor
// allocates nothing but its signature bytes.
type expander struct {
	oracle   *oracle
	rewrites []func(c *state) bool // the current pattern's templates
	succ     []successor
	order    []uint64 // per successor: cost<<48 | elements<<32 | index
	keys     []byte   // signature bytes of every successor of the step
	seen     map[string]bool
	scratch  state
	elems    []march.Element // scratch element headers
	ops      []march.Op      // scratch copy of the open element's ops

	// cut is the exclusive bound on a kept state's cost (0: none).
	cut int
	// The call's counters, published once by publish with the oracle's
	// queries and advances: beam states expanded, successors at or past
	// the cut, and whether the beam ran empty under the cut.
	expanded, dropped int
	empty             bool
}

// publish adds the call's counters to the observability run of mt's
// context, if any.
func (x *expander) publish(mt *budget.Meter) {
	run := obs.From(mt.Context())
	if run == nil {
		return
	}
	run.Counter("gts.assemble.calls").Inc()
	run.Counter("gts.assemble.expanded").Add(int64(x.expanded))
	run.Counter("gts.assemble.cut").Add(int64(x.dropped))
	run.Counter("gts.assemble.queries").Add(int64(x.oracle.queries))
	run.Counter("gts.assemble.advances").Add(int64(x.oracle.advances))
	empty := run.Counter("gts.assemble.empty") // registered even at zero
	if x.empty {
		empty.Inc()
	}
}

// step extends the beam by pattern k (shape s) and returns the next beam
// of at most width states, empty when no successor is under the cut.
func (x *expander) step(mt *budget.Meter, beam []*state, k int, s shape, width int) ([]*state, error) {
	if err := mt.CheckNow(); err != nil {
		return nil, err
	}
	x.rewrites = rewrites(s)
	x.succ, x.order, x.keys = x.succ[:0], x.order[:0], x.keys[:0]
	for i, st := range beam {
		if err := mt.Check(); err != nil {
			return nil, err
		}
		x.expand(i, st, k)
	}
	x.expanded += len(beam)
	if len(x.succ) == 0 {
		return nil, fmt.Errorf("gts: no construction realises pattern %s", s.pattern)
	}
	return x.prune(beam, width), nil
}

// expand records every successor of beam state st (beam index i) for
// pattern k: st itself when it already realises the pattern, then every
// rewrite template that applies.
func (x *expander) expand(i int, st *state, k int) {
	// Minimisation: skip patterns the partial construction already covers.
	asIs, withRead := x.oracle.covered(st, k)
	if asIs {
		x.record(i, keepAsIs, st)
	} else if withRead && st.end.Known() {
		// Virtual skip: the pattern's excitation is already present and
		// only awaits a future leading read. Locking the element keeps
		// later appends from overwriting the corruption before it is
		// observed.
		x.record(i, keepDeferred, x.apply(st, (*state).deferRead))
	}
	for r, rewrite := range x.rewrites {
		if c := x.apply(st, rewrite); c != nil {
			x.record(i, r, c)
		}
	}
}

// apply runs a rewrite on the scratch copy of st and returns the scratch
// state, or nil when the rewrite does not apply. The result is only valid
// until the next apply.
func (x *expander) apply(st *state, rewrite func(c *state) bool) *state {
	c := &x.scratch
	*c = *st
	c.elems = append(x.elems[:0], st.elems...)
	open := len(st.elems) - 1
	if open >= 0 {
		c.elems[open].Ops = append(x.ops[:0], st.elems[open].Ops...)
	}
	ok := rewrite(c)
	x.elems = c.elems
	if open >= 0 {
		x.ops = c.elems[open].Ops
	}
	if !ok {
		return nil
	}
	return c
}

// record appends a successor of beam state parent, built by rewrite into c.
func (x *expander) record(parent, rewrite int, c *state) {
	lo := len(x.keys)
	x.keys = c.appendKey(x.keys)
	// The prune order: cost, then element count, then recording order.
	x.order = append(x.order, uint64(c.cost)<<48|uint64(len(c.elems))<<32|uint64(len(x.succ)))
	x.succ = append(x.succ, successor{parent: parent, rewrite: rewrite, lo: lo, hi: len(x.keys)})
}

// prune orders the step's successors by cost (ties: fewer elements, then
// recording order), drops those at or past the cut and duplicate
// constructions, and builds the first width as the next beam. The cut
// only removes a suffix of the order, so the successors under it keep
// their relative order and deduplication outcome.
func (x *expander) prune(beam []*state, width int) []*state {
	slices.Sort(x.order)
	under := len(x.order)
	if x.cut > 0 {
		under, _ = slices.BinarySearch(x.order, uint64(x.cut)<<48)
		x.dropped += len(x.order) - under
	}
	clear(x.seen)
	next := make([]*state, 0, min(width, under))
	for _, o := range x.order[:under] {
		sc := x.succ[uint32(o)]
		key := x.keys[sc.lo:sc.hi]
		if x.seen[string(key)] {
			continue
		}
		x.seen[string(key)] = true
		next = append(next, x.build(beam[sc.parent], sc.rewrite))
		if len(next) >= width {
			break
		}
	}
	return next
}

// build turns a recorded successor of st into a state of its own. It
// shares st's closed elements and owns every element the rewrite touched.
func (x *expander) build(st *state, rewrite int) *state {
	switch rewrite {
	case keepAsIs:
		return st // rewrites never mutate st, so it joins the next beam as it is
	case keepDeferred:
		c := st.clone()
		c.deferRead()
		return c
	}
	c := x.apply(st, x.rewrites[rewrite]).clone()
	if open := len(st.elems) - 1; open >= 0 && open < len(c.elems)-1 {
		// The rewrite closed st's open element, whose ops are still in
		// the scratch buffer.
		c.elems[open].Ops = slices.Clone(c.elems[open].Ops)
	}
	return c
}

// rewrites lists the rewrite templates that can realise a pattern of
// shape s, in the order their successors are recorded.
func rewrites(s shape) []func(c *state) bool {
	var out []func(c *state) bool
	add := func(rewrite func(c *state) bool) { out = append(out, rewrite) }
	switch s.kind {
	case shapeSingle:
		if s.hasExcite && s.cond.Known() {
			// Conditioned single-cell fault: the non-excited cell must
			// hold cond at excitation time, so the element needs the same
			// order discipline as a pair fault. Within an element the
			// condition cell is untouched (= pre) when it is walked after
			// the excited cell, or holds the closing value when walked
			// before it.
			dirWithin, dirAcross := march.Up, march.Down
			if s.condLow {
				dirWithin, dirAcross = march.Down, march.Up
			}
			// Case (i), new element with immediate trailing read.
			add(func(c *state) bool {
				return c.drive(s.cond) && c.open(dirWithin) && c.drive(s.a) &&
					c.appendOp(s.excite) && c.appendOp(march.Op{Kind: march.Read, Data: s.b})
			})
			// Case (i), new element, observation deferred (the element is
			// locked so the corruption survives to the next leading read —
			// which walks the corrupted cell before re-writing it).
			add(func(c *state) bool {
				return c.drive(s.cond) && c.open(dirWithin) && c.drive(s.a) &&
					c.appendOp(s.excite) && c.deferRead()
			})
			// Case (i), extension of a compatible element.
			add(func(c *state) bool {
				return !c.locked && c.leadRead && c.pre == s.cond && (s.a == march.X || c.end == s.a) &&
					c.forceDir(dirWithin) && c.appendOp(s.excite) &&
					c.appendOp(march.Op{Kind: march.Read, Data: s.b})
			})
			// Case (ii): the condition cell is walked first and holds the
			// element's closing value; needs a write excitation equal to
			// cond and a later leading read.
			if s.excite.IsWrite() && s.excite.Data == s.cond {
				add(func(c *state) bool {
					return !c.locked && c.forceDir(dirAcross) && c.drive(s.a) && c.appendOp(s.excite) &&
						c.deferRead()
				})
				add(func(c *state) bool {
					return c.end.Known() && c.open(dirAcross) && c.drive(s.a) && c.appendOp(s.excite) &&
						c.deferRead()
				})
			}
			return out
		}
		if s.hasExcite {
			// Same-element excitation, observation deferred to the next
			// leading read. The element is locked: a later write would
			// overwrite the pending corruption before it is observed.
			add(func(c *state) bool {
				return c.drive(s.a) && c.appendOp(s.excite) && c.deferRead()
			})
			// Same-element excitation with an immediate trailing read.
			add(func(c *state) bool {
				return c.drive(s.a) && c.appendOp(s.excite) &&
					c.appendOp(march.Op{Kind: march.Read, Data: s.b})
			})
			// Non-transition write excitations (write destructive faults)
			// need the pre-value established by a genuine transition, or
			// the establishing write is itself the excitation and the
			// "exciting" one repairs the corruption.
			if s.excite.IsWrite() && s.excite.Data == s.a {
				add(func(c *state) bool {
					return c.appendOp(march.Op{Kind: march.Write, Data: s.a.Not()}) &&
						c.appendOp(march.Op{Kind: march.Write, Data: s.a}) &&
						c.appendOp(s.excite) &&
						c.appendOp(march.Op{Kind: march.Read, Data: s.b})
				})
				add(func(c *state) bool {
					return c.appendOp(march.Op{Kind: march.Write, Data: s.a.Not()}) &&
						c.appendOp(march.Op{Kind: march.Write, Data: s.a}) &&
						c.appendOp(s.excite) && c.deferRead()
				})
			}
			// Fresh element (its leading read observes prior pending
			// excitations first).
			add(func(c *state) bool {
				return c.end.Known() && c.open(march.Any) && c.drive(s.a) &&
					c.appendOp(s.excite) && c.deferRead()
			})
			return out
		}
		// Observation-only: a read of the cell while it holds a.
		add(func(c *state) bool {
			return c.drive(s.a) && c.appendOp(march.Op{Kind: march.Read, Data: s.b})
		})
		add(func(c *state) bool {
			return c.drive(s.a) && c.end == s.b && c.open(march.Any)
		})
	case shapePair:
		e := s.excite.Data
		dirWithin, dirAcross := march.Down, march.Up
		if s.aggLow {
			dirWithin, dirAcross = march.Up, march.Down
		}
		// Case (i), new element: ⇑/⇓(r_b, [w_a,] w_e) — the victim is
		// processed after the aggressor and still holds the element's
		// pre-value b; the element's own leading read observes.
		add(func(c *state) bool {
			return c.drive(s.b) && c.open(dirWithin) && c.drive(s.a) && c.appendOp(s.excite)
		})
		// Case (i), extension of the current element.
		add(func(c *state) bool {
			return !c.locked && c.leadRead && c.pre == s.b && (s.a == march.X || c.end == s.a) &&
				c.forceDir(dirWithin) && c.appendOp(s.excite)
		})
		// Case (ii): the victim is processed before the aggressor and
		// already holds the element's closing value; requires a write
		// excitation with b == e and a later leading read. (Read-coupling
		// excitations only realise through case (i): the read leaves the
		// chain value unchanged, so the element close value equals the
		// chain, not a victim-specific value.)
		if s.excite.IsWrite() && s.b == e {
			add(func(c *state) bool {
				return !c.locked && c.forceDir(dirAcross) && c.drive(s.a) && c.appendOp(s.excite) &&
					c.deferRead()
			})
			add(func(c *state) bool {
				return c.end.Known() && c.open(dirAcross) && c.drive(s.a) && c.appendOp(s.excite) &&
					c.deferRead()
			})
		}
	case shapeRetention:
		add(func(c *state) bool {
			return c.drive(s.a) && c.delay() && c.open(march.Any)
		})
	}
	return out
}
