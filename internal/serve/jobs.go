package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"marchgen"
	"marchgen/fault"
	"marchgen/internal/jobs"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
)

// JobSubmitRequest is the body of POST /v1/jobs: a kind selector plus the
// matching sub-request (the same schemas as the synchronous endpoints).
// Exactly the field named by Kind must be set.
type JobSubmitRequest struct {
	// Kind is "generate", "verify" or "simulate".
	Kind     string           `json:"kind"`
	Generate *GenerateRequest `json:"generate,omitempty"`
	Verify   *VerifyRequest   `json:"verify,omitempty"`
	Simulate *VerifyRequest   `json:"simulate,omitempty"`
}

// JobStatusResponse is the body of POST /v1/jobs and GET /v1/jobs/{id}:
// the durable job record, plus the committed result document once the job
// is done. Fields mirror jobs.Record; Result is only present on done
// jobs (a JobGenerateResult or JobVerifyResult by Kind).
type JobStatusResponse struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	State       string          `json:"state"`
	Stage       string          `json:"stage,omitempty"`
	Checkpoints int             `json:"checkpoints"`
	Resumes     int             `json:"resumes,omitempty"`
	ResultHash  string          `json:"result_hash,omitempty"`
	Error       *jobs.JobError  `json:"error,omitempty"`
	CreatedAt   time.Time       `json:"created_at"`
	UpdatedAt   time.Time       `json:"updated_at"`
	Result      json.RawMessage `json:"result,omitempty"`
	// Progress is the latest engine progress snapshot, present only
	// while the job is running in this process.
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
}

// JobGenerateResult is the canonical durable result document of a
// generate job. It deliberately excludes every volatile field of the
// synchronous GenerateResponse (request id, elapsed time, coalescing and
// cache provenance): the remaining fields are pure functions of the
// request, so an interrupted-and-resumed job commits byte-identical
// result documents — the invariant the chaos harness hashes.
type JobGenerateResult struct {
	Test           string   `json:"test"`
	ASCII          string   `json:"ascii"`
	Complexity     int      `json:"complexity"`
	Instances      int      `json:"instances"`
	Degraded       bool     `json:"degraded,omitempty"`
	DegradedStages []string `json:"degraded_stages,omitempty"`
}

// JobVerifyResult is the canonical durable result document of a verify
// or simulate job (volatile fields excluded, as on JobGenerateResult).
type JobVerifyResult struct {
	Test           string            `json:"test"`
	Complexity     int               `json:"complexity"`
	Complete       bool              `json:"complete"`
	Missed         []string          `json:"missed,omitempty"`
	NonRedundant   bool              `json:"non_redundant,omitempty"`
	RedundantReads []int             `json:"redundant_reads,omitempty"`
	RemovableOps   []int             `json:"removable_ops,omitempty"`
	Cells          int               `json:"cells,omitempty"`
	Instances      []InstanceVerdict `json:"instances"`
}

// jobsDisabled rejects job-API calls on a server started without a
// durable store.
func (s *Server) jobsDisabled(w http.ResponseWriter, r *http.Request) bool {
	if s.jobs != nil {
		return false
	}
	writeError(w, r, http.StatusServiceUnavailable, "jobs_disabled",
		"durable job store not configured (start the server with -store)")
	return true
}

// handleJobSubmit serves POST /v1/jobs: validate → canonical content key
// → idempotent durable submission. 202 marks a newly started job, 200 a
// join of an existing one (including an already-finished cache hit).
// Submissions are shed while draining; status and event reads are not.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	sp := s.run.Start("serve/jobs.submit")
	defer sp.End()
	s.run.Counter("serve.jobs.requests").Inc()
	if s.jobsDisabled(w, r) {
		sp.SetStr("outcome", "disabled")
		return
	}
	if s.draining.Load() {
		sp.SetStr("outcome", "shed")
		s.shed(w, "server is draining")
		return
	}
	var req JobSubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		sp.SetStr("outcome", "bad_request")
		writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	key, canonical, status, code, msg := s.canonicalJob(&req)
	if code != "" {
		sp.SetStr("outcome", code)
		writeError(w, r, status, code, msg)
		return
	}
	j, created, err := s.jobs.Submit(req.Kind, key, canonical)
	switch {
	case errors.Is(err, jobs.ErrClosed):
		sp.SetStr("outcome", "shed")
		s.shed(w, "server is draining")
		return
	case err != nil:
		sp.SetStr("outcome", "store_io")
		s.run.Counter("serve.jobs.errors.store_io").Inc()
		writeError(w, r, http.StatusInternalServerError, "store_io", err.Error())
		return
	}
	sp.SetStr("id", j.ID()).SetInt("created", boolInt(created))
	st := http.StatusOK
	if created {
		st = http.StatusAccepted
		s.run.Counter("serve.jobs.created").Inc()
	}
	writeJSON(w, st, s.jobBody(j.Snapshot(), false))
}

// handleJobGet serves GET /v1/jobs/{id}: the durable record, with the
// result document embedded once the job is done and the live progress
// snapshot while the job is still running here. Works during drain.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobsDisabled(w, r) {
		return
	}
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "job_not_found", fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	body := s.jobBody(j.Snapshot(), true)
	if snap, ok := j.Progress(); ok {
		body.Progress = &snap
	}
	writeJSON(w, http.StatusOK, body)
}

// handleJobEvents serves GET /v1/jobs/{id}/events as Server-Sent Events:
// the job's retained event history replays first (with ids, so
// reconnecting clients see a coherent sequence), then live progress and
// state events stream until the job ends, closing with one "summary"
// frame carrying the final record. A finished job streams its history
// and the summary immediately. A reconnecting client that presents the
// standard Last-Event-ID header skips the replayed events it already
// consumed — the live channel is registered under the same lock that
// copies the ring, so the resumed sequence has no duplicates or gaps
// (within the ring's retention).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if s.jobsDisabled(w, r) {
		return
	}
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "job_not_found", fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, "internal", "response writer does not support streaming")
		return
	}
	s.run.Counter("serve.jobs.streams").Inc()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Reconnect hint for EventSource clients, matching the shed hint.
	fmt.Fprintf(w, "retry: %d\n\n", s.cfg.RetryAfter.Milliseconds())

	lastID := -1
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			lastID = n
		}
	}
	past, ch, cancel := j.Subscribe()
	defer cancel()
	send := func(ev jobs.Event) {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	}
	for _, ev := range past {
		if ev.Seq <= lastID {
			continue
		}
		send(ev)
	}
	fl.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				// The job ended (or this process stopped running it):
				// finish the stream with the final record.
				if data, err := json.Marshal(s.jobBody(j.Snapshot(), false)); err == nil {
					fmt.Fprintf(w, "event: summary\ndata: %s\n\n", data)
				}
				fl.Flush()
				return
			}
			send(ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// jobBody renders a record as its wire form, embedding the durable
// result document when asked and available.
func (s *Server) jobBody(rec jobs.Record, includeResult bool) JobStatusResponse {
	resp := JobStatusResponse{
		ID:          rec.ID,
		Kind:        rec.Kind,
		State:       string(rec.State),
		Stage:       rec.Stage,
		Checkpoints: rec.Checkpoints,
		Resumes:     rec.Resumes,
		ResultHash:  rec.ResultHash,
		Error:       rec.Error,
		CreatedAt:   rec.CreatedAt,
		UpdatedAt:   rec.UpdatedAt,
	}
	if includeResult && rec.State == jobs.StateDone {
		if data, err := s.store.Get(jobs.NSResults, rec.Key); err == nil {
			resp.Result = data
		}
	}
	return resp
}

// canonicalJob validates a submission and produces its content-addressed
// key plus the canonical request bytes the job record stores. The key
// discipline matches the synchronous endpoints (generate jobs share
// generateKey, so a job and a coalesced sync request address the same
// content); a non-empty code reports a validation failure.
func (s *Server) canonicalJob(req *JobSubmitRequest) (key string, canonical json.RawMessage, status int, code, msg string) {
	fail := func(st int, c, m string) (string, json.RawMessage, int, string, string) {
		return "", nil, st, c, m
	}
	set := 0
	for _, p := range []bool{req.Generate != nil, req.Verify != nil, req.Simulate != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return fail(http.StatusBadRequest, "bad_request", `set exactly one of "generate", "verify" and "simulate"`)
	}
	switch req.Kind {
	case "generate":
		g := req.Generate
		if g == nil {
			return fail(http.StatusBadRequest, "bad_request", `kind "generate" requires the "generate" request`)
		}
		models, err := fault.ParseList(g.Faults)
		if err != nil {
			return fail(http.StatusBadRequest, "bad_request", err.Error())
		}
		if g.Workers < 0 || g.SelectionLimit < 0 {
			return fail(http.StatusBadRequest, "usage", "workers and selection_limit must be non-negative")
		}
		if g.TimeoutMS < 0 {
			return fail(http.StatusBadRequest, "usage", "timeout_ms must be non-negative")
		}
		if g.Budget != "" {
			if _, err := marchgen.ParseBudget(g.Budget); err != nil {
				return fail(http.StatusBadRequest, "usage", err.Error())
			}
		}
		key = generateKey(fault.Key(fault.Instances(models)), g)
	case "verify", "simulate":
		v := req.Verify
		ncell := req.Kind == "simulate"
		if ncell {
			v = req.Simulate
		}
		if v == nil {
			return fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("kind %q requires the %q request", req.Kind, req.Kind))
		}
		test, err := parseTest(v)
		if err != nil {
			return fail(http.StatusBadRequest, "bad_request", err.Error())
		}
		if _, err := fault.ParseList(v.Faults); err != nil {
			return fail(http.StatusBadRequest, "bad_request", err.Error())
		}
		if v.Workers < 0 || v.TimeoutMS < 0 {
			return fail(http.StatusBadRequest, "usage", "workers and timeout_ms must be non-negative")
		}
		cells := v.Cells
		if ncell {
			if cells == 0 {
				cells = 8
			}
			if cells < 2 || cells > 1024 {
				return fail(http.StatusBadRequest, "usage", "cells must be in [2, 1024]")
			}
		} else {
			cells = 0
		}
		// Canonicalise the test text so equivalent notations (ASCII vs
		// conventional, or a Known name) address the same job.
		v.Test, v.Known, v.Cells = test.String(), "", cells
		key = memo.NewFingerprinter("serve/jobs/" + req.Kind).
			Str(test.String()).
			Str(v.Faults).
			Int(cells).
			Int(v.TimeoutMS).
			Key()
	default:
		return fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown job kind %q (want generate, verify or simulate)", req.Kind))
	}
	data, err := json.Marshal(req)
	if err != nil {
		return fail(http.StatusInternalServerError, "internal", err.Error())
	}
	return key, data, 0, "", ""
}

// executeJob is the jobs.Executor behind the server's manager: it takes
// an engine permit (async jobs share the synchronous in-flight window)
// and runs the requested operation, returning the canonical result
// document. ctx carries the per-job observability run, so the engine's
// stage spans drive the job's checkpoints and progress stream.
func (s *Server) executeJob(ctx context.Context, kind string, raw json.RawMessage, run *obs.Run) ([]byte, error) {
	var req JobSubmitRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("%w: corrupt job request: %v", marchgen.ErrInternal, err)
	}
	if err := s.acquire(ctx); err != nil {
		return nil, mapCtxErr(err)
	}
	defer s.release()
	switch kind {
	case "generate":
		return s.execJobGenerate(ctx, req.Generate)
	case "verify":
		return s.execJobCoverage(ctx, req.Verify, false)
	case "simulate":
		return s.execJobCoverage(ctx, req.Simulate, true)
	default:
		return nil, fmt.Errorf("%w: unknown job kind %q", marchgen.ErrInternal, kind)
	}
}

// jobTimeout applies a job's optional hard deadline. Unlike the
// synchronous path there is no default: an async job without timeout_ms
// runs as long as it needs (that is what makes it a job), bounded only by
// any soft budget it carries.
func (s *Server) jobTimeout(ctx context.Context, ms int) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return ctx, func() {}
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(ctx, d)
}

func (s *Server) execJobGenerate(ctx context.Context, req *GenerateRequest) ([]byte, error) {
	if req == nil {
		return nil, fmt.Errorf("%w: job record missing generate request", marchgen.ErrInternal)
	}
	ctx, cancel := s.jobTimeout(ctx, req.TimeoutMS)
	defer cancel()
	res, err := s.executeGenerate(ctx, req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(JobGenerateResult{
		Test:           res.Test.String(),
		ASCII:          res.Test.ASCII(),
		Complexity:     res.Complexity,
		Instances:      len(res.Instances),
		Degraded:       res.Stats.Degraded,
		DegradedStages: res.Stats.DegradedStages,
	})
}

func (s *Server) execJobCoverage(ctx context.Context, req *VerifyRequest, ncell bool) ([]byte, error) {
	if req == nil {
		return nil, fmt.Errorf("%w: job record missing coverage request", marchgen.ErrInternal)
	}
	test, err := parseTest(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", marchgen.ErrUsage, err)
	}
	ctx, cancel := s.jobTimeout(ctx, req.TimeoutMS)
	defer cancel()
	var rep *marchgen.CoverageReport
	if ncell {
		rep, err = marchgen.VerifyNCtx(ctx, test, req.Faults, req.Cells)
	} else {
		rep, err = marchgen.VerifyCtx(ctx, test, req.Faults)
	}
	if err != nil {
		return nil, err
	}
	out := JobVerifyResult{
		Test:       rep.Test.String(),
		Complexity: rep.Complexity,
		Complete:   rep.Complete,
		Missed:     rep.Missed,
	}
	if ncell {
		out.Cells = req.Cells
	} else {
		out.NonRedundant = rep.NonRedundant
		out.RedundantReads = rep.RedundantReads
		out.RemovableOps = rep.RemovableOps
	}
	for _, inst := range rep.Instances {
		out.Instances = append(out.Instances, InstanceVerdict{
			Model:        inst.Model,
			Name:         inst.Name,
			Detected:     inst.Detected,
			DetectingOps: inst.DetectingOps,
		})
	}
	return json.Marshal(out)
}
