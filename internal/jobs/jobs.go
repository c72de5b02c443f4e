// Package jobs is the durable asynchronous job layer of the march-test
// service: submissions become content-addressed job records in
// internal/store, execute in the background with streaming progress, and
// commit their results durably so a finished job survives process death
// and a repeated submission is a cache hit.
//
// The lifecycle is submitted → running → checkpointed → done | failed.
// "Checkpointed" is the crash-safety state: while a job runs, every
// pipeline-stage completion persists the record (throttled). A process
// killed at any point therefore leaves either a terminal record or a
// non-terminal one; Recover re-adopts such orphans on the next start and
// re-runs them from their first stage. The engine is deterministic, so
// the resumed run commits a byte-identical result. The store holds job
// records and results only: the engine's memo cache lives in process
// memory, and a resumed job recomputes what the killed process had
// solved.
//
// Error classification follows budget.IsTerminal: only cancellation
// (shutdown, client abort) is resumable; every other failure becomes a
// typed terminal record so a job can never hang or vanish — the contract
// the chaos harness (internal/chaos, marchload -chaos) enforces.
package jobs

import (
	"encoding/json"
	"time"
)

// Store namespaces used by the job layer: NSJobs holds job records and
// NSResults the committed result documents.
const (
	NSJobs    = "jobs"
	NSResults = "results"
)

// State is a job lifecycle state.
type State string

// The job lifecycle: submitted → running → checkpointed → done | failed.
// A checkpointed job is still executing (or was interrupted and awaits
// Recover); only done and failed are terminal.
const (
	StateSubmitted    State = "submitted"
	StateRunning      State = "running"
	StateCheckpointed State = "checkpointed"
	StateDone         State = "done"
	StateFailed       State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// JobError is the typed terminal error of a failed job. Code values are
// the service error codes ("unsupported_fault", "store_io", ...); Message
// is human-readable detail.
type JobError struct {
	// Code is the machine-readable error class.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// Record is the durable state of one job, persisted to the store under
// NSJobs/ID on every transition (and on throttled checkpoints). It is the
// unit the resume machinery reasons about: everything needed to re-adopt
// the job after a crash is here or reachable from Key.
type Record struct {
	// ID is the job identifier, derived from Key (see JobID): the same
	// request always maps to the same job.
	ID string `json:"id"`
	// Kind is the operation ("generate", "verify", "simulate").
	Kind string `json:"kind"`
	// Key is the canonical content hash of the request; the result, once
	// committed, lives at NSResults/Key.
	Key string `json:"key"`
	// Request is the original request body, kept verbatim so a restarted
	// process can re-execute without the submitting client.
	Request json.RawMessage `json:"request"`

	// State is the lifecycle state last persisted.
	State State `json:"state"`
	// Stage names the engine stage of the latest checkpoint.
	Stage string `json:"stage,omitempty"`
	// Checkpoints counts persisted progress records; Resumes counts
	// orphan re-adoptions after a crash or restart.
	Checkpoints int `json:"checkpoints"`
	// Resumes counts orphan re-adoptions; MaxResumes caps it.
	Resumes int `json:"resumes,omitempty"`

	// ResultHash is the hex SHA-256 of the committed result bytes (done
	// jobs only) — the value the chaos harness compares across kills.
	ResultHash string `json:"result_hash,omitempty"`
	// Error is the typed terminal error of a failed job.
	Error *JobError `json:"error,omitempty"`

	// CreatedAt is when the job was first submitted; UpdatedAt advances
	// on every persisted transition or checkpoint.
	CreatedAt time.Time `json:"created_at"`
	// UpdatedAt is the time of the latest persisted record write.
	UpdatedAt time.Time `json:"updated_at"`
}

// jobIDHashLen is how much of the content hash the job id exposes: 96
// bits, comfortably collision-free for any realistic job population while
// keeping ids short enough to paste.
const jobIDHashLen = 24

// JobID derives the job identifier from a request content hash. The
// mapping is deterministic, which is what makes resubmission idempotent:
// the same canonical request always addresses the same job.
func JobID(key string) string {
	if len(key) > jobIDHashLen {
		key = key[:jobIDHashLen]
	}
	return "j-" + key
}
