// Package budget centralises the resource accounting and cancellation
// machinery threaded through the generation pipeline. Every stage of the
// synthesis pipeline (class-selection enumeration, the exact ATSP solvers,
// the rewrite beam, validation and shrinking) consults a single *Meter,
// which merges two distinct mechanisms:
//
//   - hard cancellation via context.Context: the caller gave up. The
//     pipeline aborts as fast as possible and returns ErrCanceled or
//     ErrDeadlineExceeded; no result is produced.
//   - soft resource budgets via Budget: the caller still wants an answer,
//     just not at any price. When a budget runs out the pipeline degrades —
//     the exact ATSP falls back to the layered heuristics, enumeration and
//     shrinking stop early — and the (still simulator-validated) result is
//     marked degraded instead of optimal.
//
// The sentinel errors below are re-exported by the root marchgen package so
// library callers can errors.Is/As against them without importing an
// internal path.
package budget

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The typed error taxonomy of the pipeline. All pipeline errors wrap one of
// these sentinels; match with errors.Is.
var (
	// ErrCanceled reports that the caller's context was canceled.
	ErrCanceled = errors.New("marchgen: generation canceled")
	// ErrDeadlineExceeded reports that the caller's context deadline
	// passed before generation finished.
	ErrDeadlineExceeded = errors.New("marchgen: generation deadline exceeded")
	// ErrBudgetExhausted reports that a soft resource budget ran out
	// before any usable result existed. (When a budget runs out after a
	// valid candidate has been found, generation succeeds with the result
	// marked degraded instead of returning this error.)
	ErrBudgetExhausted = errors.New("marchgen: resource budget exhausted")
	// ErrUnsupportedFault reports a fault list the pipeline cannot
	// realise: an unknown model name, or patterns outside the rewrite
	// grammar that the bounded fallback search cannot cover either.
	ErrUnsupportedFault = errors.New("marchgen: unsupported fault")
	// ErrInternal reports an internal invariant failure (a recovered
	// panic); see InternalError for the stage and stack.
	ErrInternal = errors.New("marchgen: internal error")
	// ErrUsage reports an invalid caller-supplied configuration value — a
	// malformed or zero budget entry, a negative worker count. The CLIs
	// map it to ExitUsage (2) uniformly via ExitCode.
	ErrUsage = errors.New("marchgen: invalid usage")
)

// InternalError is the boundary form of a recovered internal panic: no
// library caller ever sees a raw panic, they see one of these (matching
// errors.Is(err, ErrInternal)) carrying the pipeline stage and the stack.
type InternalError struct {
	// Stage names the pipeline stage that panicked (e.g. "generate").
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("marchgen: internal error in stage %q: %v", e.Stage, e.Value)
}

// Is makes errors.Is(err, ErrInternal) succeed for InternalError values.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// Unwrap exposes a wrapped error when the panic value itself was an error.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Budget bounds the resources one generation run may spend. The zero value
// means unlimited. All limits are soft: running out degrades the result
// (heuristic ordering, truncated enumeration) instead of failing, except
// when no valid candidate exists yet at exhaustion time — then the run
// fails with ErrBudgetExhausted.
type Budget struct {
	// Deadline is the soft deadline: past it, the pipeline stops opening
	// new work and finishes from what it has. Contrast with a context
	// deadline, which aborts with ErrDeadlineExceeded instead.
	Deadline time.Time
	// ATSPNodes caps the total number of search states the exact ATSP
	// solvers (Held–Karp, branch-and-bound, optimal-path enumeration) may
	// expand across the whole run; on exhaustion the ordering falls back
	// to the layered heuristics.
	ATSPNodes int
	// Selections caps the number of BFE equivalence-class selections
	// enumerated (the paper's E = ∏|Cᵢ| product of Section 5).
	Selections int
	// Candidates caps the number of rewrite candidates validated.
	Candidates int
}

// Unlimited reports whether the budget imposes no limit at all.
func (b Budget) Unlimited() bool {
	return b.Deadline.IsZero() && b.ATSPNodes <= 0 && b.Selections <= 0 && b.Candidates <= 0
}

// Validate rejects semantically invalid budgets (negative counts). The
// zero value of each field means "unlimited" and is valid; explicit zeros
// are only rejected at the textual layer (ParseSpec), where "nodes=0"
// would otherwise silently mean the opposite of what it reads as.
func (b Budget) Validate() error {
	if b.ATSPNodes < 0 {
		return fmt.Errorf("budget: negative node count %d: %w", b.ATSPNodes, ErrUsage)
	}
	if b.Selections < 0 {
		return fmt.Errorf("budget: negative selection count %d: %w", b.Selections, ErrUsage)
	}
	if b.Candidates < 0 {
		return fmt.Errorf("budget: negative candidate count %d: %w", b.Candidates, ErrUsage)
	}
	return nil
}

// ParseSpec parses the CLI form of a Budget: a comma-separated list of
// key=value pairs with keys "nodes" (ATSP search states), "selections",
// "candidates" (positive integers) and "soft" (a positive time.Duration,
// converted to an absolute soft deadline from time.Now). The empty string
// is the unlimited budget; an explicit zero or negative value is a usage
// error (wrapping ErrUsage) — omit the key to leave a dimension unlimited.
func ParseSpec(spec string) (Budget, error) {
	var b Budget
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return b, nil
	}
	count := func(key, val string) (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("budget: bad %s count %q: %w", key, val, ErrUsage)
		}
		if n == 0 {
			return 0, fmt.Errorf("budget: %s=0 is not a valid limit (omit the key for unlimited): %w", key, ErrUsage)
		}
		return n, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Budget{}, fmt.Errorf("budget: malformed entry %q (want key=value): %w", part, ErrUsage)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch strings.ToLower(key) {
		case "soft":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Budget{}, fmt.Errorf("budget: bad soft deadline %q: %v: %w", val, err, ErrUsage)
			}
			if d <= 0 {
				return Budget{}, fmt.Errorf("budget: soft deadline %q is not positive: %w", val, ErrUsage)
			}
			b.Deadline = time.Now().Add(d)
		case "nodes":
			n, err := count("node", val)
			if err != nil {
				return Budget{}, err
			}
			b.ATSPNodes = n
		case "selections":
			n, err := count("selection", val)
			if err != nil {
				return Budget{}, err
			}
			b.Selections = n
		case "candidates":
			n, err := count("candidate", val)
			if err != nil {
				return Budget{}, err
			}
			b.Candidates = n
		default:
			return Budget{}, fmt.Errorf("budget: unknown key %q (known: soft, nodes, selections, candidates): %w", key, ErrUsage)
		}
	}
	return b, nil
}

// ParseWorkers validates a CLI -workers flag value: 0 selects the
// GOMAXPROCS-aware default, positive values are taken literally, and a
// negative value is a usage error wrapping ErrUsage. This is the single
// validation point shared by every CLI, so a bad worker count exits with
// ExitUsage (2) everywhere.
func ParseWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("budget: negative worker count %d: %w", n, ErrUsage)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// CtxErr maps a context's error to the typed taxonomy (nil when the
// context is still live).
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadlineExceeded
	default:
		return ErrCanceled
	}
}

// checkStride is how many cheap Check calls pass between two real context
// consultations: hot search loops can call Check per node without paying a
// ctx.Err() (an atomic load plus a mutex in the stdlib) every time.
const checkStride = 64

// Meter carries one generation run's cancellation context and soft budget
// through the pipeline. It is safe for concurrent use: the parallel engine
// shares one Meter between the worker pool (sweep producers, simulation
// workers) and the sequential driver, so hard cancellation latches exactly
// once and node accounting stays a single global count. A nil *Meter is
// valid everywhere and disables all checks, which is what the legacy
// non-context entry points pass.
type Meter struct {
	ctx  context.Context
	b    Budget
	tick atomic.Uint64
	// nodes counts exact-ATSP search states expended so far (all workers).
	nodes atomic.Int64
	// nodesOut latches ATSP node-budget exhaustion: once the exact
	// solvers run dry, every later exact solve fails fast and the caller
	// keeps using the heuristic fallback.
	nodesOut atomic.Bool
	// errOnce/err latch the first hard-cancellation error so every later
	// check is one atomic load.
	errSet atomic.Bool
	errMu  sync.Mutex
	err    error
}

// NewMeter builds the Meter for one run. ctx may be nil (treated as
// context.Background()).
func NewMeter(ctx context.Context, b Budget) *Meter {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Meter{ctx: ctx, b: b}
}

// latched returns the latched hard error, if any.
func (m *Meter) latched() error {
	if !m.errSet.Load() {
		return nil
	}
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// latch stores the first hard error and returns the winning one.
func (m *Meter) latch(err error) error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	if m.err == nil {
		m.err = err
		m.errSet.Store(true)
	}
	return m.err
}

// Check is the cheap periodic cancellation probe for hot loops: most calls
// are a couple of atomic loads, every checkStride-th call consults the
// context. It returns ErrCanceled or ErrDeadlineExceeded once the run is
// hard-canceled, permanently.
func (m *Meter) Check() error {
	if m == nil {
		return nil
	}
	if err := m.latched(); err != nil {
		return err
	}
	if m.tick.Add(1)%checkStride != 0 {
		return nil
	}
	return m.CheckNow()
}

// CheckNow always consults the context; stage entry points use it so a
// canceled run stops within one stage transition.
func (m *Meter) CheckNow() error {
	if m == nil {
		return nil
	}
	if err := m.latched(); err != nil {
		return err
	}
	if err := CtxErr(m.ctx); err != nil {
		return m.latch(err)
	}
	return nil
}

// Node charges one exact-solver search state against the ATSPNodes budget
// (and performs the periodic cancellation probe). It returns
// ErrBudgetExhausted once the budget is spent; hard cancellation errors
// take precedence. Concurrent callers share the one global count.
func (m *Meter) Node() error {
	if m == nil {
		return nil
	}
	if err := m.Check(); err != nil {
		return err
	}
	if m.b.ATSPNodes <= 0 {
		return nil
	}
	if m.nodesOut.Load() {
		return ErrBudgetExhausted
	}
	if m.nodes.Add(1) > int64(m.b.ATSPNodes) {
		m.nodesOut.Store(true)
		return ErrBudgetExhausted
	}
	return nil
}

// Nodes reports the exact-solver search states expended so far.
func (m *Meter) Nodes() int {
	if m == nil {
		return 0
	}
	return int(m.nodes.Load())
}

// SoftExpired reports whether the soft deadline has passed: the pipeline
// should stop opening new work and finish from what it already has.
func (m *Meter) SoftExpired() bool {
	if m == nil || m.b.Deadline.IsZero() {
		return false
	}
	return time.Now().After(m.b.Deadline)
}

// Budget returns the run's soft budget.
func (m *Meter) Budget() Budget {
	if m == nil {
		return Budget{}
	}
	return m.b
}

// Context returns the run's cancellation context (context.Background for a
// nil meter), letting pipeline stages hand it to context-based helpers.
func (m *Meter) Context() context.Context {
	if m == nil || m.ctx == nil {
		return context.Background()
	}
	return m.ctx
}

// IsHard reports whether err is a hard-cancellation error that must abort
// the run (as opposed to a soft exhaustion the caller can degrade around).
func IsHard(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded)
}

// IsTerminal classifies a pipeline error for the durable job layer:
// terminal errors describe the request itself (bad usage, an unsupported
// fault list, an exhausted budget, an engine bug, the job's own expired
// deadline) and re-running cannot change them, so the job fails with a
// typed record. Non-terminal errors — ErrCanceled above all, which is
// what a run observes when its process is draining or dying — describe
// the attempt, and the job resumes from its last checkpoint on the next
// start instead of failing.
// Unknown errors (parse failures, store I/O) are conservatively terminal
// as well: only a cancellation is evidence that re-running could succeed.
func IsTerminal(err error) bool {
	return err != nil && !errors.Is(err, ErrCanceled)
}

// Process exit codes shared by the cmd/ CLIs so scripts can tell an
// optimal run from a degraded, canceled or failed one.
const (
	// ExitOK: success, optimal (non-degraded) result.
	ExitOK = 0
	// ExitFail: generation or verification failed (no result).
	ExitFail = 1
	// ExitUsage: bad command-line usage.
	ExitUsage = 2
	// ExitCanceled: the run was canceled or timed out (-timeout).
	ExitCanceled = 3
	// ExitDegraded: a result was produced and printed, but a soft budget
	// ran out along the way: the result is validated best-effort, not
	// proven optimal.
	ExitDegraded = 4
)

// ExitCode maps a pipeline error to the CLI exit code convention above.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrUsage):
		return ExitUsage
	case IsHard(err):
		return ExitCanceled
	default:
		return ExitFail
	}
}
