package obs

import (
	"sync/atomic"
	"time"
)

// Progress is the live-progress surface of a Run: a fixed set of
// last-write-wins atomic cells that the engine's long loops (the §5
// selection sweep, the ATSP branch and bound, the fault-simulation
// kernel) update in place, and that the serving layers snapshot on
// demand (SSE progress events, GET /v1/jobs/{id}, the marchgen
// -progress ticker).
//
// The contract matches the rest of the package: a nil *Progress accepts
// every method as a no-op, updates never allocate and never take a
// lock, and pairs of values whose relation matters (incumbent/bound,
// coverage detected/total, selection index/total) are packed into a
// single 64-bit word so a reader can never observe them torn — the
// bound ≤ incumbent invariant holds in every snapshot, not just
// between writes.
//
// Cells that are logically monotone (selection index, nodes expanded)
// are advanced with CAS-max / Add so concurrent writers cannot move
// them backwards; "current best" cells (incumbent/bound, coverage of
// the candidate being evaluated) are plain last-write-wins stores.
type Progress struct {
	// stage is the pipeline stage the run is in, maintained for free by
	// Stages.Enter (the same boundary that parents deep-layer spans).
	stage atomic.Pointer[string]

	// selection packs the sweep position: index in the high 32 bits,
	// total (E = ∏|Cᵢ|) in the low 32. Index-high makes the packed word
	// itself monotone, so CAS-max keeps the pair coherent and ascending.
	selection atomic.Uint64

	// search packs the current exact solve: incumbent tour cost in the
	// high 32 bits, AP lower bound in the low 32, both offset by one so
	// the zero word means "no solve yet" and an absent half decodes to
	// zero. Written as one store on every incumbent or bound movement.
	search atomic.Uint64

	// coverage packs the latest kernel evaluation: detected fault
	// instances in the high 32 bits, total instances in the low 32.
	coverage atomic.Uint64

	nodes      atomic.Int64 // B&B nodes expanded, cumulative across solves
	candidates atomic.Int64 // distinct candidate tests scored so far
	best       atomic.Int64 // best (lowest) complexity found; 0 = none yet
}

// searchHalf encodes one half of the search word: v+1 clamped to 32
// bits, with v < 0 encoding "absent" as 0.
func searchHalf(v int64) uint64 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFFFFFE {
		v = 0xFFFFFFFE
	}
	return uint64(v) + 1
}

// Stage records the pipeline stage the run is currently in. The string
// should be a stable stage name (Stages.Enter passes the span name).
func (p *Progress) Stage(name string) {
	if p == nil {
		return
	}
	p.stage.Store(&name)
}

// Selection records the sweep position: selection index i of total E.
// Monotone — a stale or concurrent smaller index never moves the pair
// backwards.
func (p *Progress) Selection(index, total int64) {
	if p == nil {
		return
	}
	if index < 0 {
		index = 0
	}
	if index > 0xFFFFFFFF {
		index = 0xFFFFFFFF
	}
	if total < 0 {
		total = 0
	}
	if total > 0xFFFFFFFF {
		total = 0xFFFFFFFF
	}
	packed := uint64(index)<<32 | uint64(total)
	for {
		cur := p.selection.Load()
		if packed <= cur || p.selection.CompareAndSwap(cur, packed) {
			return
		}
	}
}

// Search records the state of the current exact solve: the incumbent
// tour cost and the active lower bound, stored as one word so no reader
// sees a bound from one solve against an incumbent from another. Pass a
// negative value for a half that is not known yet (no incumbent before
// the first tour is found; no bound before the root relaxation).
func (p *Progress) Search(incumbent, bound int64) {
	if p == nil {
		return
	}
	p.search.Store(searchHalf(incumbent)<<32 | searchHalf(bound))
}

// Coverage records the latest fault-coverage evaluation: detected
// instances of total. Last-write-wins — each candidate test is a fresh
// evaluation, so the cell tracks the candidate under test.
func (p *Progress) Coverage(detected, total int64) {
	if p == nil {
		return
	}
	if detected < 0 {
		detected = 0
	}
	if detected > 0xFFFFFFFF {
		detected = 0xFFFFFFFF
	}
	if total < 0 {
		total = 0
	}
	if total > 0xFFFFFFFF {
		total = 0xFFFFFFFF
	}
	p.coverage.Store(uint64(detected)<<32 | uint64(total))
}

// AddNodes adds a batch of expanded branch-and-bound nodes. Solvers
// batch locally and flush periodically, so this is off the per-node
// hot path.
func (p *Progress) AddNodes(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.nodes.Add(n)
}

// Candidates records the cumulative number of candidate tests scored.
func (p *Progress) Candidates(n int64) {
	if p == nil {
		return
	}
	p.candidates.Store(n)
}

// Best lowers the best-complexity watermark to c (the pipeline
// minimises complexity; a worse or equal value is ignored).
func (p *Progress) Best(c int64) {
	if p == nil || c <= 0 {
		return
	}
	for {
		cur := p.best.Load()
		if (cur != 0 && c >= cur) || p.best.CompareAndSwap(cur, c) {
			return
		}
	}
}

// ProgressSnapshot is one coherent, JSON-ready reading of a run's
// Progress cells plus the derived rates: the payload of job progress
// events, the GET /v1/jobs/{id} progress field and the marchgen
// -progress line.
type ProgressSnapshot struct {
	// Stage is the pipeline stage span name (e.g. "generate/atsp").
	Stage string `json:"stage,omitempty"`

	// SelectionIndex / SelectionTotal are the §5 sweep position: the
	// run is solving selection index+1 of total (E = ∏|Cᵢ|).
	SelectionIndex int64 `json:"selection_index,omitempty"`
	SelectionTotal int64 `json:"selection_total,omitempty"` // see SelectionIndex

	// Fraction is SelectionIndex/SelectionTotal in [0,1] — the overall
	// sweep fraction, 0 until the sweep starts.
	Fraction float64 `json:"fraction"`

	// Incumbent and Bound describe the current exact solve: the best
	// tour cost found so far and the active lower bound
	// (Bound ≤ Incumbent whenever both are set). Omitted when unset.
	Incumbent int64 `json:"incumbent,omitempty"`
	Bound     int64 `json:"bound,omitempty"` // see Incumbent

	// Nodes is the cumulative branch-and-bound nodes expanded across
	// all solves of the run; NodesPerSec is the run-average rate.
	Nodes       int64 `json:"nodes,omitempty"`
	NodesPerSec int64 `json:"nodes_per_sec,omitempty"` // see Nodes

	// CoverageDetected / CoverageTotal are the latest kernel
	// evaluation's detected and total fault instances;
	// CoverageFraction is their ratio.
	CoverageDetected int64   `json:"coverage_detected,omitempty"`
	CoverageTotal    int64   `json:"coverage_total,omitempty"`    // see CoverageDetected
	CoverageFraction float64 `json:"coverage_fraction,omitempty"` // see CoverageDetected

	// Candidates is the number of candidate tests scored so far;
	// BestComplexity the lowest complexity among them.
	Candidates     int64 `json:"candidates,omitempty"`
	BestComplexity int64 `json:"best_complexity,omitempty"` // see Candidates

	// ElapsedMS is wall time since the run started; ETAMS the linear
	// extrapolation of the remaining sweep time from Fraction (0 when
	// the fraction is still 0).
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	ETAMS     int64 `json:"eta_ms,omitempty"` // see ElapsedMS
}

// Changed reports whether the snapshot differs from prev in any
// engine-written cell — the time-derived fields (ElapsedMS, ETAMS,
// NodesPerSec) are ignored, so a publisher that suppresses unchanged
// snapshots does not re-emit on the mere passage of time.
func (s ProgressSnapshot) Changed(prev ProgressSnapshot) bool {
	s.ElapsedMS, s.ETAMS, s.NodesPerSec = 0, 0, 0
	prev.ElapsedMS, prev.ETAMS, prev.NodesPerSec = 0, 0, 0
	return s != prev
}

// Progress returns the run's progress cells, or nil (a universal no-op
// handle) on a nil run.
func (r *Run) Progress() *Progress {
	if r == nil {
		return nil
	}
	return &r.progress
}

// ProgressSnapshot reads every progress cell into one coherent snapshot
// and derives the rates from the run's elapsed wall time. Safe to call
// concurrently with updates; returns the zero snapshot on a nil run.
func (r *Run) ProgressSnapshot() ProgressSnapshot {
	if r == nil {
		return ProgressSnapshot{}
	}
	p := &r.progress
	var s ProgressSnapshot
	if name := p.stage.Load(); name != nil {
		s.Stage = *name
	}
	sel := p.selection.Load()
	s.SelectionIndex = int64(sel >> 32)
	s.SelectionTotal = int64(sel & 0xFFFFFFFF)
	if s.SelectionTotal > 0 {
		s.Fraction = float64(s.SelectionIndex) / float64(s.SelectionTotal)
	}
	search := p.search.Load()
	s.Incumbent = int64(search>>32) - 1
	s.Bound = int64(search&0xFFFFFFFF) - 1
	if s.Incumbent < 0 {
		s.Incumbent = 0
	}
	if s.Bound < 0 {
		s.Bound = 0
	}
	cov := p.coverage.Load()
	s.CoverageDetected = int64(cov >> 32)
	s.CoverageTotal = int64(cov & 0xFFFFFFFF)
	if s.CoverageTotal > 0 {
		s.CoverageFraction = float64(s.CoverageDetected) / float64(s.CoverageTotal)
	}
	s.Nodes = p.nodes.Load()
	s.Candidates = p.candidates.Load()
	s.BestComplexity = p.best.Load()
	elapsed := time.Since(r.t0)
	s.ElapsedMS = elapsed.Milliseconds()
	if sec := elapsed.Seconds(); sec > 0 && s.Nodes > 0 {
		s.NodesPerSec = int64(float64(s.Nodes) / sec)
	}
	if s.Fraction > 0 && s.Fraction < 1 {
		s.ETAMS = int64(float64(s.ElapsedMS) * (1 - s.Fraction) / s.Fraction)
	}
	return s
}
