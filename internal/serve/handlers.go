package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"marchgen"
	"marchgen/fault"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
)

// mapCtxErr converts a raw context error (from a permit wait) to the
// typed taxonomy so httpStatus maps it like an engine-reported one.
func mapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return marchgen.ErrDeadlineExceeded
	}
	return marchgen.ErrCanceled
}

// handleGenerate serves POST /v1/generate: admission → canonical key →
// coalesce → engine permit → engine → typed-status response.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	id := s.requestID(r)
	sp := s.run.Start("serve/generate").SetStr("id", id)
	defer sp.End()
	s.run.Counter("serve.generate.requests").Inc()

	release, ok := s.admit(w, r)
	if !ok {
		sp.SetStr("outcome", "shed")
		return
	}
	defer release()

	var req GenerateRequest
	if err := decodeBody(w, r, &req); err != nil {
		sp.SetStr("outcome", "bad_request")
		writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	models, err := fault.ParseList(req.Faults)
	if err != nil {
		sp.SetStr("outcome", "bad_request")
		writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.Workers < 0 || req.SelectionLimit < 0 {
		sp.SetStr("outcome", "usage")
		writeError(w, r, http.StatusBadRequest, "usage", "workers and selection_limit must be non-negative")
		return
	}
	if req.Budget != "" {
		if _, err := marchgen.ParseBudget(req.Budget); err != nil {
			sp.SetStr("outcome", "usage")
			writeError(w, r, http.StatusBadRequest, "usage", err.Error())
			return
		}
	}
	timeout, err := s.resolveTimeout(req.TimeoutMS)
	if err != nil {
		sp.SetStr("outcome", "usage")
		writeError(w, r, http.StatusBadRequest, "usage", err.Error())
		return
	}

	instances := fault.Instances(models)
	key := generateKey(fault.Key(instances), &req)
	sp.SetStr("faults", req.Faults)

	c, coalesced := s.group.join(key, func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(s.baseContext())
		tctx, tcancel := context.WithTimeout(ctx, timeout)
		return tctx, func() { tcancel(); cancel() }
	})
	if !coalesced {
		go s.lead(c, &req)
	}
	sp.SetInt("coalesced", boolInt(coalesced))

	res, err := c.wait(r.Context())
	if err != nil {
		status, code := httpStatus(err)
		sp.SetStr("outcome", code)
		s.run.Counter("serve.generate.errors." + code).Inc()
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, r, status, code, err.Error())
		return
	}
	sp.SetStr("outcome", "ok").SetInt("complexity", int64(res.Complexity))
	s.run.Counter("serve.generate.ok").Inc()
	s.run.Histogram("serve.generate.elapsed_us").Observe(res.Stats.Elapsed.Microseconds())
	writeJSON(w, http.StatusOK, GenerateResponse{
		RequestID:      id,
		Test:           res.Test.String(),
		ASCII:          res.Test.ASCII(),
		Complexity:     res.Complexity,
		Instances:      len(res.Instances),
		Degraded:       res.Stats.Degraded,
		DegradedStages: res.Stats.DegradedStages,
		FromCache:      res.Stats.FromCache,
		Coalesced:      coalesced,
		Stats: GenerateStats{
			Classes:    res.Stats.Classes,
			Selections: res.Stats.Selections,
			TPGNodes:   res.Stats.TPGNodes,
			PathCost:   res.Stats.PathCost,
			Candidates: res.Stats.Candidates,
		},
		ElapsedUS: res.Stats.Elapsed.Microseconds(),
	})
}

// lead runs a coalesced call's engine run on the leader's behalf. The
// permit wait happens under the call's detached runCtx, so it honours the
// request's timeout but not one caller's disconnect: a call whose
// deadline passes, or whose every waiter leaves, while it is still queued
// completes with the mapped context error and never reaches the engine.
func (s *Server) lead(c *call, req *GenerateRequest) {
	if err := s.acquire(c.runCtx); err != nil {
		s.group.complete(c, nil, mapCtxErr(err))
		return
	}
	if s.testLeaderGate != nil {
		<-s.testLeaderGate
	}
	s.group.runs.Inc()
	res, err := s.executeGenerate(c.runCtx, req)
	s.release()
	s.group.complete(c, res, err)
}

// executeGenerate runs the engine for one coalesced call. The soft
// budget is parsed here, not at admission, so a "soft=500ms" deadline is
// relative to the moment the run actually starts rather than to its time
// in the queue.
func (s *Server) executeGenerate(ctx context.Context, req *GenerateRequest) (*marchgen.Result, error) {
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	opts := []marchgen.Option{marchgen.WithWorkers(workers)}
	if req.Heuristic {
		opts = append(opts, marchgen.WithHeuristicATSP())
	}
	if req.SelectionLimit > 0 {
		opts = append(opts, marchgen.WithSelectionLimit(req.SelectionLimit))
	}
	spec := req.Budget
	if spec == "" {
		spec = s.cfg.DefaultBudget
	}
	if spec != "" {
		b, err := marchgen.ParseBudget(spec)
		if err != nil {
			return nil, err
		}
		opts = append(opts, marchgen.WithBudget(b))
	}
	return marchgen.GenerateCtx(ctx, req.Faults, opts...)
}

// generateKey fingerprints a generate request's canonical content: the
// expanded fault-instance list plus every request field that shapes the
// result. Workers is deliberately excluded — results are byte-identical
// at any worker count, so requests differing only in workers coalesce.
func generateKey(faultKey string, req *GenerateRequest) string {
	return memo.NewFingerprinter("serve/generate").
		Str(faultKey).
		Bool(req.Heuristic).
		Int(req.SelectionLimit).
		Str(req.Budget).
		Int(req.TimeoutMS).
		Key()
}

// handleVerify serves POST /v1/verify on the two-cell engine with the
// Section 6 non-redundancy analysis.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	s.handleCoverage(w, r, false)
}

// handleSimulate serves POST /v1/simulate on the n-cell simulator (the
// paper's validation instrument; coverage verdicts only).
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.handleCoverage(w, r, true)
}

func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request, ncell bool) {
	name := "serve/verify"
	if ncell {
		name = "serve/simulate"
	}
	id := s.requestID(r)
	sp := s.run.Start(name).SetStr("id", id)
	defer sp.End()
	s.run.Counter(name[len("serve/"):] + ".requests").Inc()

	release, ok := s.admit(w, r)
	if !ok {
		sp.SetStr("outcome", "shed")
		return
	}
	defer release()

	var req VerifyRequest
	if err := decodeBody(w, r, &req); err != nil {
		sp.SetStr("outcome", "bad_request")
		writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	test, err := parseTest(&req)
	if err != nil {
		sp.SetStr("outcome", "bad_request")
		writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.Workers < 0 {
		sp.SetStr("outcome", "usage")
		writeError(w, r, http.StatusBadRequest, "usage", "workers must be non-negative")
		return
	}
	cells := req.Cells
	if ncell {
		if cells == 0 {
			cells = 8
		}
		if cells < 2 || cells > 1024 {
			sp.SetStr("outcome", "usage")
			writeError(w, r, http.StatusBadRequest, "usage", "cells must be in [2, 1024]")
			return
		}
	}
	timeout, err := s.resolveTimeout(req.TimeoutMS)
	if err != nil {
		sp.SetStr("outcome", "usage")
		writeError(w, r, http.StatusBadRequest, "usage", err.Error())
		return
	}
	// Verification runs under the request's own context (no coalescing):
	// client cancellation aborts the simulation directly.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ctx = obs.Into(ctx, s.run)
	if err := s.acquire(ctx); err != nil {
		status, code := httpStatus(mapCtxErr(err))
		sp.SetStr("outcome", code)
		writeError(w, r, status, code, "request expired while queued: "+err.Error())
		return
	}
	defer s.release()

	start := time.Now()
	var rep *marchgen.CoverageReport
	if ncell {
		rep, err = marchgen.VerifyNCtx(ctx, test, req.Faults, cells)
	} else {
		rep, err = marchgen.VerifyCtx(ctx, test, req.Faults)
	}
	if err != nil {
		status, code := httpStatus(err)
		sp.SetStr("outcome", code)
		s.run.Counter(name[len("serve/"):] + ".errors." + code).Inc()
		writeError(w, r, status, code, err.Error())
		return
	}
	sp.SetStr("outcome", "ok").SetInt("complete", boolInt(rep.Complete))
	resp := VerifyResponse{
		RequestID:  id,
		Test:       rep.Test.String(),
		Complexity: rep.Complexity,
		Complete:   rep.Complete,
		Missed:     rep.Missed,
		ElapsedUS:  time.Since(start).Microseconds(),
	}
	if ncell {
		resp.Cells = cells
	} else {
		resp.NonRedundant = rep.NonRedundant
		resp.RedundantReads = rep.RedundantReads
		resp.RemovableOps = rep.RemovableOps
	}
	for _, inst := range rep.Instances {
		resp.Instances = append(resp.Instances, InstanceVerdict{
			Model:        inst.Model,
			Name:         inst.Name,
			Detected:     inst.Detected,
			DetectingOps: inst.DetectingOps,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// boolInt renders a boolean as a span attribute value.
func boolInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
