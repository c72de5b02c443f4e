package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"marchgen/internal/budget"
	"marchgen/internal/chaos"
	"marchgen/internal/obs"
	"marchgen/internal/store"
)

// ErrClosed reports a submission after the manager began shutting down.
var ErrClosed = errors.New("jobs: manager closed")

// Executor runs one job to completion and returns the canonical result
// bytes. It must be deterministic for a given (kind, request): resumed
// runs re-invoke it and the crash-safety contract is that they produce
// byte-identical output. ctx carries the per-job obs.Run (obs.From), and
// the same run is passed explicitly for registering observers. The
// returned error is classified with budget.IsTerminal: cancellation
// suspends the job for resume, anything else fails it.
type Executor func(ctx context.Context, kind string, request json.RawMessage, run *obs.Run) ([]byte, error)

// Config configures a Manager. Store and Exec are required.
type Config struct {
	// Store is the durable backing for records, results and memo entries.
	Store *store.Store
	// Exec runs each submitted job.
	Exec Executor
	// ErrCode maps a terminal executor error to a wire error code; nil
	// defaults every error to "internal".
	ErrCode func(error) string
	// Obs receives the manager's counters (submissions, checkpoints,
	// resumes, failures); nil disables them.
	Obs *obs.Run
	// MaxResumes caps how many times a job may be re-adopted before it is
	// failed with code "resume_limit" — the safety valve that turns a job
	// that kills its process every time into a typed terminal error
	// instead of a crash loop. Default 5.
	MaxResumes int
	// CheckpointEvery throttles durable checkpoint writes per job;
	// a new pipeline stage always checkpoints immediately. Default 200ms.
	CheckpointEvery time.Duration
}

// Manager owns the background execution of durable jobs: idempotent
// submission, per-job progress buses, checkpoint persistence, result
// commit, and orphan recovery after a restart.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
	wg     sync.WaitGroup
}

// Job is one managed job: the live view over its durable Record plus the
// event bus streaming its progress.
type Job struct {
	m   *Manager
	bus *bus

	mu       sync.Mutex
	rec      Record
	lastCkpt time.Time

	// run is the engine's observability run while this process executes
	// the job (nil for adopted-terminal or not-yet-started jobs): the
	// source of the live progress snapshots streamed on the bus and
	// served on status reads.
	run *obs.Run

	// done closes when the job reaches a terminal state. An interrupted
	// (checkpointed, awaiting resume) job does not close it; its bus
	// closes instead, releasing streaming subscribers.
	done chan struct{}
}

// NewManager builds a Manager over a store. Call Recover to re-adopt
// jobs left non-terminal by a previous process, then Submit at will.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Store == nil || cfg.Exec == nil {
		return nil, fmt.Errorf("jobs: Store and Exec are required")
	}
	if cfg.MaxResumes <= 0 {
		cfg.MaxResumes = 5
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 200 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{cfg: cfg, ctx: ctx, cancel: cancel, jobs: map[string]*Job{}}, nil
}

// counter is the nil-safe manager metrics hook.
func (m *Manager) counter(name string) *obs.Counter { return m.cfg.Obs.Counter(name) }

func (m *Manager) code(err error) string {
	if m.cfg.ErrCode != nil {
		return m.cfg.ErrCode(err)
	}
	return "internal"
}

// persist durably writes the record. Failures surface to the caller;
// most call sites treat them as best-effort (a stale record only costs a
// redundant resume) except submission, where durability is the point.
// UpdatedAt is stamped at the mutation sites, not here, so the live
// in-memory record and the durable copy carry the same timestamp.
func (m *Manager) persist(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encode record: %w", err)
	}
	return m.cfg.Store.Put(NSJobs, rec.ID, data)
}

// persistRetry persists with one retry — enough to ride out a single
// injected fault without hiding a persistently broken disk.
func (m *Manager) persistRetry(rec Record) error {
	err := m.persist(rec)
	if err == nil {
		return nil
	}
	m.counter("jobs.persist_retries").Inc()
	return m.persist(rec)
}

// Submit registers (or finds) the job for a canonical request. key must
// be the request's content hash: submission is idempotent, so a repeat of
// a finished job returns its durable record immediately and a repeat of a
// live one joins it. created reports whether this call started a new run.
func (m *Manager) Submit(kind, key string, request json.RawMessage) (j *Job, created bool, err error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	id := JobID(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	if j, ok := m.jobs[id]; ok {
		m.counter("jobs.joined").Inc()
		return j, false, nil
	}
	// A durable record from a previous process (or a pruned in-memory
	// map) — adopt it rather than re-run.
	if rec, ok := m.loadRecord(id); ok {
		j := m.adoptLocked(rec)
		return j, false, nil
	}
	// No record, but the result may already be durable (an identical
	// request finished under a record that was later deleted): commit a
	// done record straight away.
	if res, err := m.cfg.Store.Get(NSResults, key); err == nil {
		now := time.Now().UTC()
		rec := Record{
			ID: id, Kind: kind, Key: key, Request: request,
			State: StateDone, ResultHash: hashOf(res), CreatedAt: now, UpdatedAt: now,
		}
		_ = m.persistRetry(rec) // best-effort: the result itself is durable
		j := m.newJobLocked(rec)
		j.finishLocked()
		m.counter("jobs.result_hits").Inc()
		return j, false, nil
	}
	now := time.Now().UTC()
	rec := Record{ID: id, Kind: kind, Key: key, Request: request, State: StateSubmitted, CreatedAt: now, UpdatedAt: now}
	// Submission must be durable before we acknowledge it: a job that
	// cannot be recorded is refused, not silently volatile.
	if err := m.persistRetry(rec); err != nil {
		return nil, false, err
	}
	j = m.newJobLocked(rec)
	m.counter("jobs.submitted").Inc()
	j.bus.publish(Event{Type: "state", State: StateSubmitted})
	m.startLocked(j)
	return j, true, nil
}

// Get returns the job with the given id, consulting the durable store
// for jobs not live in this process. A non-terminal durable record found
// here is an orphan (the process that ran it died); it is re-adopted
// exactly as Recover would.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j, true
	}
	rec, ok := m.loadRecord(id)
	if !ok {
		return nil, false
	}
	return m.adoptLocked(rec), true
}

// Recover scans the store for jobs a previous process left non-terminal
// and re-adopts them: jobs whose result is already durable complete
// immediately, the rest re-execute from their persisted checkpoints (the
// memo tier supplies the finished sub-problems). Returns the number of
// jobs resumed. Call once, after NewManager and before serving traffic.
func (m *Manager) Recover() (int, error) {
	ids, err := m.cfg.Store.List(NSJobs)
	if err != nil {
		return 0, err
	}
	resumed := 0
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		if _, ok := m.jobs[id]; ok {
			continue
		}
		rec, ok := m.loadRecord(id)
		if !ok || rec.State.Terminal() {
			continue
		}
		m.adoptLocked(rec)
		resumed++
	}
	return resumed, nil
}

// Close stops accepting submissions, cancels running jobs (they persist
// a checkpointed record for the next process to resume) and waits for
// them to quiesce, bounded by ctx.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown wait: %w", ctx.Err())
	}
}

// loadRecord reads and decodes a durable record; corrupt records read as
// absent (Put is atomic, so this only happens on external tampering).
func (m *Manager) loadRecord(id string) (Record, bool) {
	raw, err := m.cfg.Store.Get(NSJobs, id)
	if err != nil {
		return Record{}, false
	}
	var rec Record
	if json.Unmarshal(raw, &rec) != nil || rec.ID != id {
		return Record{}, false
	}
	return rec, true
}

// newJobLocked materialises a record as a live job. Caller holds m.mu.
func (m *Manager) newJobLocked(rec Record) *Job {
	j := &Job{m: m, bus: newBus(), rec: rec, done: make(chan struct{})}
	m.jobs[rec.ID] = j
	return j
}

// adoptLocked brings a durable record into this process: terminal
// records become closed jobs; non-terminal ones are orphans from a dead
// process and re-enter execution with Resumes incremented (or fail with
// "resume_limit" once the cap is hit). Caller holds m.mu.
func (m *Manager) adoptLocked(rec Record) *Job {
	if rec.State.Terminal() {
		j := m.newJobLocked(rec)
		j.finishLocked()
		return j
	}
	rec.UpdatedAt = time.Now().UTC()
	// The result may have been committed by the dead process even though
	// its record never advanced (killed between the two writes): honour
	// the result rather than re-running.
	if res, err := m.cfg.Store.Get(NSResults, rec.Key); err == nil {
		rec.State, rec.ResultHash, rec.Error = StateDone, hashOf(res), nil
		_ = m.persistRetry(rec)
		j := m.newJobLocked(rec)
		j.finishLocked()
		m.counter("jobs.result_hits").Inc()
		return j
	}
	rec.Resumes++
	if rec.Resumes > m.cfg.MaxResumes {
		rec.State = StateFailed
		rec.Error = &JobError{Code: "resume_limit", Message: fmt.Sprintf("jobs: aborted after %d resume attempts", rec.Resumes-1)}
		_ = m.persistRetry(rec)
		j := m.newJobLocked(rec)
		j.finishLocked()
		m.counter("jobs.resume_limited").Inc()
		return j
	}
	rec.State = StateSubmitted
	_ = m.persistRetry(rec)
	j := m.newJobLocked(rec)
	m.counter("jobs.resumed").Inc()
	j.bus.publish(Event{Type: "state", State: StateSubmitted, Stage: rec.Stage})
	m.startLocked(j)
	return j
}

// startLocked launches the job's runner goroutine. Caller holds m.mu;
// a closed manager leaves the job submitted for the next process.
func (m *Manager) startLocked(j *Job) {
	if m.closed {
		return
	}
	m.wg.Add(1)
	go m.run(j)
}

// stagePrefix is the engine's pipeline-stage span namespace: a finished
// span under it marks a stage boundary, the checkpoint trigger.
const stagePrefix = "generate/"

// progressEvery rate-limits streamed progress events per span name.
const progressEvery = 50 * time.Millisecond

// run executes one job to a terminal state or a resumable interruption.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	run := obs.NewRun()
	j.mu.Lock()
	j.run = run
	j.mu.Unlock()
	run.Notify(j.observe)
	j.transition(StateRunning, "")
	rec := j.Snapshot()
	stopTicker := j.startProgressTicker(run)
	res, err := m.cfg.Exec(obs.Into(m.ctx, run), rec.Kind, rec.Request, run)
	stopTicker()
	// The run is live telemetry: detach it before the terminal
	// transition so status reads on a finished job report no progress
	// (and the long-lived Job handle does not pin the run's recorder).
	j.mu.Lock()
	j.run = nil
	j.mu.Unlock()
	switch {
	case err == nil:
		j.complete(res)
	case budget.IsTerminal(err):
		j.fail(m.code(err), err.Error())
	default:
		j.interrupt()
	}
}

// observe is the obs.Notify hook: every finished span becomes a
// (throttled) progress event carrying the engine's live progress
// snapshot, and stage-boundary spans trigger durable checkpoints.
func (j *Job) observe(ev obs.Event) {
	stage := ""
	if strings.HasPrefix(ev.Name, stagePrefix) {
		stage = strings.TrimPrefix(ev.Name, stagePrefix)
	}
	if j.bus.shouldEmit(ev.Name, progressEvery) {
		j.bus.publishProgress(j.liveRun(), func(snap *obs.ProgressSnapshot) (Event, bool) {
			return Event{Type: "progress", Span: ev.Name, DurUS: ev.DurUS, Stage: stage, Progress: snap}, true
		})
	}
	if stage != "" {
		j.checkpoint(stage)
	}
}

// liveRun returns the job's engine run, nil when this process is not
// executing it.
func (j *Job) liveRun() *obs.Run {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.run
}

// Progress returns the engine's latest live-progress snapshot, false
// when this process never executed the job (adopted terminal records,
// jobs queued behind a closed manager).
func (j *Job) Progress() (obs.ProgressSnapshot, bool) {
	run := j.liveRun()
	if run == nil {
		return obs.ProgressSnapshot{}, false
	}
	return run.ProgressSnapshot(), true
}

// startProgressTicker streams periodic progress events while the
// executor runs, covering the long silent stretches (a deep
// branch-and-bound subtree expands millions of nodes without finishing
// a single stage span). A tick publishes only when an engine-written
// cell moved, so an idle wait costs nothing downstream; the returned
// stop func ends the stream.
func (j *Job) startProgressTicker(run *obs.Run) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(progressEvery)
		defer t.Stop()
		var prev obs.ProgressSnapshot
		for {
			select {
			case <-done:
				return
			case <-t.C:
				j.bus.publishProgress(run, func(snap *obs.ProgressSnapshot) (Event, bool) {
					if !snap.Changed(prev) {
						return Event{}, false
					}
					prev = *snap
					return Event{
						Type:     "progress",
						Stage:    strings.TrimPrefix(snap.Stage, stagePrefix),
						Progress: snap,
					}, true
				})
			}
		}
	}()
	return func() { close(done) }
}

// checkpoint persists the record at a stage boundary (throttled; a new
// stage always persists) and then crosses the kill failpoint — the
// "killed between checkpoints" moment the chaos harness injects.
func (j *Job) checkpoint(stage string) {
	j.mu.Lock()
	if j.rec.State != StateRunning && j.rec.State != StateCheckpointed {
		j.mu.Unlock()
		return
	}
	now := time.Now()
	if stage == j.rec.Stage && now.Sub(j.lastCkpt) < j.m.cfg.CheckpointEvery {
		j.mu.Unlock()
		return
	}
	j.lastCkpt = now
	j.rec.State = StateCheckpointed
	j.rec.Stage = stage
	j.rec.Checkpoints++
	j.rec.UpdatedAt = now.UTC()
	rec := j.rec
	j.mu.Unlock()
	// Checkpoints are an optimisation, so persistence failures (chaos
	// fsync, full disk) are counted, not fatal: the job still completes,
	// it would just resume from an older stage after a crash.
	if err := j.m.persist(rec); err != nil {
		j.m.counter("jobs.checkpoint_errors").Inc()
	} else {
		j.m.counter("jobs.checkpoints").Inc()
		chaos.Active().Kill()
	}
	j.bus.publish(Event{Type: "state", State: StateCheckpointed, Stage: stage, Checkpoints: rec.Checkpoints})
}

// transition moves the job to a non-terminal state and persists
// best-effort.
func (j *Job) transition(s State, stage string) {
	j.mu.Lock()
	j.rec.State = s
	if stage != "" {
		j.rec.Stage = stage
	}
	j.rec.UpdatedAt = time.Now().UTC()
	rec := j.rec
	j.mu.Unlock()
	if err := j.m.persist(rec); err != nil {
		j.m.counter("jobs.persist_errors").Inc()
	}
	j.bus.publish(Event{Type: "state", State: s, Stage: rec.Stage})
}

// complete commits the result durably, then the done record. The order
// matters: once the result bytes are committed the job is semantically
// done — a crash before the record write is healed by adoptLocked's
// result check.
func (j *Job) complete(res []byte) {
	if err := j.m.putRetry(NSResults, j.rec.Key, res); err != nil {
		// No durable result means no done job; this is terminal I/O
		// failure, typed so the client knows retrying may help.
		j.fail("store_io", err.Error())
		return
	}
	j.mu.Lock()
	j.rec.State = StateDone
	j.rec.ResultHash = hashOf(res)
	j.rec.Error = nil
	j.rec.UpdatedAt = time.Now().UTC()
	rec := j.rec
	j.mu.Unlock()
	if err := j.m.persistRetry(rec); err != nil {
		// The result is durable; only the record lags. Report done —
		// recovery reconstructs the record from the result.
		j.m.counter("jobs.persist_errors").Inc()
	}
	j.m.counter("jobs.done").Inc()
	j.bus.publish(Event{Type: "state", State: StateDone, ResultHash: rec.ResultHash, Checkpoints: rec.Checkpoints})
	j.finish()
}

// fail records a typed terminal error.
func (j *Job) fail(code, msg string) {
	j.mu.Lock()
	j.rec.State = StateFailed
	j.rec.Error = &JobError{Code: code, Message: msg}
	j.rec.UpdatedAt = time.Now().UTC()
	rec := j.rec
	j.mu.Unlock()
	if err := j.m.persistRetry(rec); err != nil {
		j.m.counter("jobs.persist_errors").Inc()
	}
	j.m.counter("jobs.failed").Inc()
	j.bus.publish(Event{Type: "state", State: StateFailed, Error: rec.Error})
	j.finish()
}

// interrupt suspends a cancelled job for resume: the record persists as
// checkpointed (the orphan state Recover looks for) and the stream
// closes, but done stays open — the job is not over, this process is.
// The job stays in the live map so status reads keep working during
// drain without triggering a re-adoption this process cannot honour.
func (j *Job) interrupt() {
	j.mu.Lock()
	j.rec.State = StateCheckpointed
	j.rec.UpdatedAt = time.Now().UTC()
	rec := j.rec
	j.mu.Unlock()
	if err := j.m.persistRetry(rec); err != nil {
		j.m.counter("jobs.persist_errors").Inc()
	}
	j.m.counter("jobs.interrupted").Inc()
	j.bus.publish(Event{Type: "state", State: StateCheckpointed, Stage: rec.Stage, Checkpoints: rec.Checkpoints})
	j.bus.close()
}

// finish closes the done channel and the event stream. Terminal states
// only.
func (j *Job) finish() {
	j.mu.Lock()
	j.finishLocked()
	j.mu.Unlock()
}

func (j *Job) finishLocked() {
	select {
	case <-j.done:
	default:
		close(j.done)
	}
	j.bus.close()
}

// putRetry writes to the store with one retry (see persistRetry).
func (m *Manager) putRetry(ns, key string, data []byte) error {
	err := m.cfg.Store.Put(ns, key, data)
	if err == nil {
		return nil
	}
	m.counter("jobs.persist_retries").Inc()
	return m.cfg.Store.Put(ns, key, data)
}

// ID returns the job identifier.
func (j *Job) ID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.ID
}

// Snapshot returns a copy of the job's current record.
func (j *Job) Snapshot() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// Done closes when the job reaches a terminal state. It stays open
// across a shutdown interruption — the job is still pending then, owned
// by the next process.
func (j *Job) Done() <-chan struct{} { return j.done }

// Subscribe returns the job's retained event history plus a live channel
// that closes when the job ends (or this process stops running it). Call
// cancel to detach early.
func (j *Job) Subscribe() (past []Event, ch <-chan Event, cancel func()) {
	return j.bus.subscribe()
}

// Result returns the committed result bytes of a done job.
func (j *Job) Result() ([]byte, error) {
	j.mu.Lock()
	key, state := j.rec.Key, j.rec.State
	j.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("jobs: job %s not done (state %s)", j.ID(), state)
	}
	return j.m.cfg.Store.Get(NSResults, key)
}

// hashOf is the result-hash convention: hex SHA-256 of the bytes.
func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validKey insists on the canonical 64-hex-char content-hash form so job
// ids (a prefix of the key) are well-formed and store-safe.
func validKey(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("jobs: key %q is not a content hash", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("jobs: key %q is not a content hash", key)
		}
	}
	return nil
}
