package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"marchgen"
	"marchgen/march"
)

// maxBodyBytes bounds a request body; fault lists and March tests are
// tiny, so anything bigger is a client error.
const maxBodyBytes = 1 << 20

// StatusClientClosedRequest is the non-standard 499 status (popularised
// by nginx) the service returns when the caller went away mid-run — the
// HTTP face of ErrCanceled, matching the CLIs' exit code 3.
const StatusClientClosedRequest = 499

// GenerateRequest is the body of POST /v1/generate.
type GenerateRequest struct {
	// Faults is the comma-separated fault list (required), in the same
	// syntax as the library and CLIs: "SAF,TF,ADF" or "CFid<u,0>,CFin".
	Faults string `json:"faults"`
	// Heuristic selects the layered heuristic ATSP solver instead of the
	// exact one (faster, result no longer proven minimal).
	Heuristic bool `json:"heuristic,omitempty"`
	// SelectionLimit caps the BFE class-selection enumeration (0: the
	// engine default of 64).
	SelectionLimit int `json:"selection_limit,omitempty"`
	// Workers sets the engine worker-pool size for this request (0: the
	// server's configured default). The generated test is byte-identical
	// at any worker count.
	Workers int `json:"workers,omitempty"`
	// Budget is a soft-budget spec in marchgen.ParseBudget form, e.g.
	// "nodes=100000,soft=500ms". Exhaustion degrades the result instead
	// of failing; the downgrade is reported in the response. Empty: the
	// server's configured default budget.
	Budget string `json:"budget,omitempty"`
	// TimeoutMS is the hard per-request deadline in milliseconds (0: the
	// server default; capped at the server maximum). Past it the run is
	// aborted with 504.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// GenerateStats is the pipeline-effort section of a GenerateResponse —
// the wire form of marchgen.Stats.
type GenerateStats struct {
	Classes    int `json:"classes"`
	Selections int `json:"selections"`
	TPGNodes   int `json:"tpg_nodes"`
	PathCost   int `json:"path_cost"`
	Candidates int `json:"candidates"`
}

// GenerateResponse is the body of a successful POST /v1/generate.
type GenerateResponse struct {
	RequestID string `json:"request_id"`
	// Test is the generated March test in conventional notation; ASCII is
	// the same test in 7-bit notation.
	Test  string `json:"test"`
	ASCII string `json:"ascii"`
	// Complexity is the operations-per-cell figure ("kn").
	Complexity int `json:"complexity"`
	// Instances is the number of fault instances the test provably
	// detects.
	Instances int `json:"instances"`
	// Degraded reports that a soft budget ran out mid-run: the test is
	// still simulator-validated complete but no longer proven minimal;
	// DegradedStages names the stages that downgraded.
	Degraded       bool     `json:"degraded,omitempty"`
	DegradedStages []string `json:"degraded_stages,omitempty"`
	// FromCache reports a memo-cache hit: an earlier run already solved
	// this exact problem and the engine was skipped entirely.
	FromCache bool `json:"from_cache,omitempty"`
	// Coalesced reports that this request joined another in-flight
	// identical request and shares its engine run (and its bytes).
	Coalesced bool          `json:"coalesced,omitempty"`
	Stats     GenerateStats `json:"stats"`
	// ElapsedUS is the engine wall-clock time in microseconds (shared by
	// every coalesced caller of the run).
	ElapsedUS int64 `json:"elapsed_us"`
}

// VerifyRequest is the body of POST /v1/verify and POST /v1/simulate.
// Exactly one of Test (conventional or ASCII March notation) and Known
// (a classic test name such as "MarchC-") must be set.
type VerifyRequest struct {
	// Test is a March test body; Known names a library test instead.
	Test  string `json:"test,omitempty"`
	Known string `json:"known,omitempty"`
	// Faults is the comma-separated fault list (required).
	Faults string `json:"faults"`
	// Cells selects the n-cell simulator size for /v1/simulate (default
	// 8; /v1/verify ignores it and uses the two-cell engine).
	Cells int `json:"cells,omitempty"`
	// Workers is accepted, checked non-negative and ignored: verification
	// runs on one goroutine. It stays on the wire because request bodies
	// and persisted job records are decoded with unknown fields rejected.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS behaves as on GenerateRequest.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// InstanceVerdict is one fault instance's verdict in a VerifyResponse.
type InstanceVerdict struct {
	Model    string `json:"model"`
	Name     string `json:"name"`
	Detected bool   `json:"detected"`
	// DetectingOps lists flattened operation indices whose reads
	// individually certify detection.
	DetectingOps []int `json:"detecting_ops,omitempty"`
}

// VerifyResponse is the body of a successful POST /v1/verify or
// /v1/simulate — the wire form of marchgen.CoverageReport.
type VerifyResponse struct {
	RequestID  string `json:"request_id"`
	Test       string `json:"test"`
	Complexity int    `json:"complexity"`
	Complete   bool   `json:"complete"`
	// Missed lists undetected instance names when coverage is incomplete.
	Missed []string `json:"missed,omitempty"`
	// NonRedundant and the redundancy fields are only meaningful when
	// Complete is true and are omitted by /v1/simulate (the n-cell engine
	// reports coverage only).
	NonRedundant   bool              `json:"non_redundant,omitempty"`
	RedundantReads []int             `json:"redundant_reads,omitempty"`
	RemovableOps   []int             `json:"removable_ops,omitempty"`
	Instances      []InstanceVerdict `json:"instances"`
	// Cells is the simulator size used (/v1/simulate only).
	Cells     int   `json:"cells,omitempty"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the machine-readable error class; see docs/api.md for the
	// full table ("usage", "unsupported_fault", "canceled",
	// "deadline_exceeded", "budget_exhausted", "overloaded", "internal",
	// "bad_request").
	Code string `json:"code"`
	// RequestID echoes the request id when one was assigned.
	RequestID string `json:"request_id,omitempty"`
}

// httpStatus maps the typed error taxonomy of the root package onto HTTP
// statuses, mirroring the CLI exit-code convention (DESIGN.md §7):
//
//	ErrUsage             → 400 (CLI exit 2)
//	ErrUnsupportedFault  → 422 (CLI exit 1)
//	ErrCanceled          → 499 (CLI exit 3)
//	ErrDeadlineExceeded  → 504 (CLI exit 3)
//	ErrBudgetExhausted   → 503 (CLI exit 1; no result existed yet)
//	ErrInternal          → 500 (CLI exit 1)
//	anything else        → 400 (parse and validation failures)
func httpStatus(err error) (status int, code string) {
	switch {
	case errors.Is(err, marchgen.ErrUsage):
		return http.StatusBadRequest, "usage"
	case errors.Is(err, marchgen.ErrUnsupportedFault):
		return http.StatusUnprocessableEntity, "unsupported_fault"
	case errors.Is(err, marchgen.ErrCanceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, marchgen.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, marchgen.ErrBudgetExhausted):
		return http.StatusServiceUnavailable, "budget_exhausted"
	case errors.Is(err, marchgen.ErrInternal):
		return http.StatusInternalServerError, "internal"
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

// writeError emits the uniform error body, echoing the request id header
// when present.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	id := ""
	if r != nil {
		id = r.Header.Get("X-Request-Id")
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, RequestID: id})
}

// writeErrorNoReq is writeError for paths that shed before a request id
// exists.
func writeErrorNoReq(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// decodeBody decodes a JSON request body strictly (unknown fields are
// client errors, bodies are size-bounded).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// resolveTimeout applies the server's default and cap to a request's
// timeout_ms field.
func (s *Server) resolveTimeout(ms int) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("timeout_ms must be non-negative, got %d", ms)
	}
	d := time.Duration(ms) * time.Millisecond
	if d == 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// parseTest resolves the Test/Known pair of a VerifyRequest.
func parseTest(req *VerifyRequest) (*march.Test, error) {
	switch {
	case req.Test != "" && req.Known != "":
		return nil, fmt.Errorf("set exactly one of \"test\" and \"known\"")
	case req.Known != "":
		kt, ok := march.Known(req.Known)
		if !ok {
			return nil, fmt.Errorf("unknown March test %q (known: %v)", req.Known, march.KnownNames())
		}
		return kt.Test, nil
	case req.Test != "":
		t, err := march.Parse(req.Test)
		if err != nil {
			return nil, err
		}
		return t, nil
	default:
		return nil, fmt.Errorf("set one of \"test\" and \"known\"")
	}
}
