// Package serve turns the generation engine into a long-running HTTP/JSON
// service: march-test synthesis (/v1/generate), verification (/v1/verify)
// and n-cell simulation (/v1/simulate) layered directly on the library's
// GenerateCtx/VerifyCtx entry points, with the operational machinery a
// shared engine needs:
//
//   - request coalescing: concurrent identical /v1/generate requests are
//     deduplicated under a content-addressed key (the same fingerprint
//     discipline as internal/memo) so N callers share one engine run and
//     receive byte-identical tests (coalesce.go);
//   - admission control: a bounded in-flight window plus a bounded queue;
//     past both, requests are shed with 503 and a Retry-After hint, and a
//     request whose deadline expires while queued for an engine permit is
//     answered without ever reaching the engine (admit and acquire, below);
//   - typed-error mapping: the error taxonomy of the root package
//     (ErrCanceled, ErrDeadlineExceeded, ErrBudgetExhausted, ErrUsage,
//     ErrUnsupportedFault, ErrInternal) maps onto HTTP statuses exactly as
//     the CLIs map it onto exit codes (proto.go);
//   - observability: every request gets a serve/* span carrying the
//     request id, engine spans and metrics aggregate into the server's
//     obs.Run, and /metrics, /healthz and /readyz expose the snapshot;
//   - graceful drain: BeginDrain flips /readyz, sheds new work and lets
//     the in-flight window finish (Drain waits for it), which is what
//     cmd/marchserve wires to SIGTERM.
//
// The package is stdlib-only, like everything else in the module. See
// docs/api.md for the wire schemas and cmd/marchserve for the binary.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marchgen"
	"marchgen/internal/jobs"
	"marchgen/internal/obs"
	"marchgen/internal/simd"
	"marchgen/internal/store"
)

// Config tunes a Server. The zero value of any field selects the
// corresponding default; see DefaultConfig.
type Config struct {
	// MaxInFlight bounds concurrent engine runs (generate, verify and
	// simulate all consume permits). Default: GOMAXPROCS.
	MaxInFlight int
	// QueueDepth bounds requests admitted beyond the in-flight window;
	// past MaxInFlight+QueueDepth new requests are shed with 503.
	// Default: 64.
	QueueDepth int
	// DefaultTimeout is the per-request hard deadline applied when the
	// request does not carry its own timeout_ms. Default: 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps a client-requested timeout_ms. Default: 2m.
	MaxTimeout time.Duration
	// DefaultBudget is the soft-budget spec (marchgen.ParseBudget form)
	// applied to /v1/generate requests that do not carry their own
	// "budget" field. Empty: unlimited.
	DefaultBudget string
	// Workers is the selection-sweep worker-pool size used when a
	// generate request does not set its own (0: GOMAXPROCS). Results are
	// byte-identical at any worker count, so this is purely a
	// throughput/latency knob; verification ignores it.
	Workers int
	// RetryAfter is the hint returned in the Retry-After header of shed
	// responses. Default: 1s.
	RetryAfter time.Duration
	// Obs, when non-nil, is the server-lifetime observability run that
	// collects request spans and aggregated engine metrics. New creates
	// an untraced one (obs.NewUntracedRun) when nil: spans are counted,
	// not kept. cmd/marchserve passes the run bound to its -trace /
	// -metrics flags so a drained server leaves a complete trace behind.
	Obs *obs.Run
	// Store, when non-nil, enables the async job API (/v1/jobs): job
	// records and results persist here, and New re-adopts any job a
	// previous process left unfinished. The engine's memo cache stays in
	// process memory either way. Nil disables the job endpoints with 503
	// jobs_disabled.
	Store *store.Store
}

// DefaultConfig returns the production defaults described on Config.
func DefaultConfig() Config {
	return Config{
		MaxInFlight:    runtime.GOMAXPROCS(0),
		QueueDepth:     64,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		RetryAfter:     time.Second,
	}
}

// Server is the HTTP generation service. Construct with New, mount
// Handler on an http.Server, and wire BeginDrain/Drain to the process
// signals for graceful shutdown.
type Server struct {
	cfg   Config
	run   *obs.Run
	start time.Time

	// active counts admitted requests (executing or queued); the
	// admission bound is MaxInFlight+QueueDepth.
	active atomic.Int64
	// sem holds the engine permits: at most MaxInFlight engine runs
	// execute concurrently, whatever the admission window holds.
	sem chan struct{}
	// wg tracks admitted requests for Drain.
	wg sync.WaitGroup

	draining atomic.Bool
	reqSeq   atomic.Uint64

	group *group

	// store/jobs are the durable job subsystem, nil without Config.Store.
	store     *store.Store
	jobs      *jobs.Manager
	recovered int

	// testLeaderGate, when non-nil, blocks every coalescing leader that
	// holds its engine permit until the channel is closed — a test-only
	// seam that lets the coalescing tests deterministically pile joiners
	// onto an in-flight call.
	testLeaderGate chan struct{}
}

// New builds a Server from cfg, filling unset fields from DefaultConfig.
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = def.MaxInFlight
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = def.DefaultTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = def.MaxTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = def.RetryAfter
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewUntracedRun()
	}
	s := &Server{
		cfg:   cfg,
		run:   cfg.Obs,
		start: time.Now(),
		sem:   make(chan struct{}, cfg.MaxInFlight),
	}
	s.group = newGroup(s.run)
	if cfg.Store != nil {
		s.store = cfg.Store
		mgr, err := jobs.NewManager(jobs.Config{
			Store: cfg.Store,
			Exec:  s.executeJob,
			ErrCode: func(err error) string {
				_, code := httpStatus(err)
				return code
			},
			Obs: s.run,
		})
		if err == nil { // only fails on nil Store/Exec, impossible here
			s.jobs = mgr
			n, rerr := mgr.Recover()
			if rerr != nil {
				s.run.Counter("serve.jobs.recover_errors").Inc()
			}
			s.recovered = n
			s.run.Counter("serve.jobs.recovered").Add(int64(n))
		}
	}
	return s
}

// RecoveredJobs reports how many unfinished jobs New re-adopted from the
// durable store (cmd/marchserve logs it at startup).
func (s *Server) RecoveredJobs() int { return s.recovered }

// Run returns the server-lifetime observability run: request spans,
// aggregated engine metrics, admission counters.
func (s *Server) Run() *obs.Run { return s.run }

// Handler returns the service's HTTP routes. Every API endpoint is
// wrapped in the latency/in-flight instrumentation (instrument); the
// health and metrics probes are left bare so scrapes do not pollute
// the request series.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", s.instrument("generate", s.handleGenerate))
	mux.HandleFunc("POST /v1/verify", s.instrument("verify", s.handleVerify))
	mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/jobs", s.instrument("jobs_submit", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs_get", s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("jobs_events", s.handleJobEvents))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// instrument wraps an endpoint handler with the per-endpoint
// observability surface: an SLO-bucket latency histogram
// (serve.http.<endpoint>.latency_us), a live in-flight gauge and a
// request counter. The handles are resolved once at route-build time,
// so the per-request cost is two atomic adds and one histogram
// observation.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	latency := s.run.SLOHistogram("serve.http."+endpoint+".latency_us", obs.SLOLatencyBounds)
	inflight := s.run.Gauge("serve.http." + endpoint + ".inflight")
	requests := s.run.Counter("serve.http." + endpoint + ".requests")
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Add(1)
		t0 := time.Now()
		defer func() {
			inflight.Add(-1)
			latency.Observe(time.Since(t0).Microseconds())
		}()
		h(w, r)
	}
}

// BeginDrain stops admitting work: /readyz flips to 503 and every new
// API request is shed with 503 + Retry-After. In-flight and queued
// requests keep running to completion; call Drain to wait for them.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.run.Counter("serve.drain.begun").Inc()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain blocks until every admitted request has completed, or until ctx
// expires (returning its error). It does not itself stop admission —
// call BeginDrain first. With a job store configured, Drain then
// suspends running jobs: each persists a checkpointed record and the
// next process resumes it (Recover in New).
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.jobs != nil {
		return s.jobs.Close(ctx)
	}
	return nil
}

// requestID returns the client-supplied X-Request-Id or mints a
// sequential one.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return "r" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// admit applies admission control: draining servers and a full window
// shed with 503 + Retry-After, and a request that arrives already past
// its deadline is shed with 504 without consuming a slot. On success the
// returned release func must be called exactly once when the request
// finishes.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.draining.Load() {
		s.shed(w, "server is draining")
		return nil, false
	}
	if err := r.Context().Err(); err != nil {
		s.run.Counter("serve.shed.dead_on_arrival").Inc()
		writeError(w, r, http.StatusGatewayTimeout, "deadline_exceeded", "request deadline expired before admission")
		return nil, false
	}
	limit := int64(s.cfg.MaxInFlight + s.cfg.QueueDepth)
	if s.active.Add(1) > limit {
		s.active.Add(-1)
		s.shed(w, fmt.Sprintf("admission window full (%d in flight or queued)", limit))
		return nil, false
	}
	s.wg.Add(1)
	s.run.Counter("serve.admitted").Inc()
	s.run.Gauge("serve.active").Max(s.active.Load())
	return func() {
		s.active.Add(-1)
		s.wg.Done()
	}, true
}

// shed rejects a request with 503 + Retry-After and counts it.
func (s *Server) shed(w http.ResponseWriter, msg string) {
	s.run.Counter("serve.shed").Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
	writeErrorNoReq(w, http.StatusServiceUnavailable, "overloaded", msg)
}

// acquire takes one engine permit, waiting at most until ctx is done
// (deadline-aware queueing: an expired request never reaches the engine).
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	s.run.Counter("serve.permit.waited").Inc()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// baseContext is the detached context engine runs execute under: it
// carries the server's observability run (so engine spans and metrics
// aggregate into /metrics) but no request-scoped cancellation — the
// coalescer cancels a run only when every joined request has gone away.
func (s *Server) baseContext() context.Context {
	return obs.Into(context.Background(), s.run)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_us": time.Since(s.start).Microseconds(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// The drain hint matches shed responses: load balancers and
		// marchload back off the same way for both.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// handleMetrics exposes the server run's metrics, content-negotiated:
// the default is the flat JSON snapshot (the same int64 naming scheme
// as Stats.Metrics), while an Accept header asking for text/plain or
// OpenMetrics — what a Prometheus scraper sends — selects the
// Prometheus text exposition with full histogram buckets. Both views
// add the live admission gauges, the process-wide memo-cache counters
// and the kernel throughput telemetry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	extra := map[string]int64{
		"serve.active.now": s.active.Load(),
		"serve.uptime_us":  time.Since(s.start).Microseconds(),
	}
	if s.draining.Load() {
		extra["serve.draining"] = 1
	}
	ci := marchgen.CacheSnapshot()
	extra["memo.shared.hits"] = int64(ci.Hits)
	extra["memo.shared.misses"] = int64(ci.Misses)
	extra["memo.shared.evictions"] = int64(ci.Evictions)
	extra["memo.shared.entries"] = int64(ci.Entries)
	kt := simd.ReadTelemetry()
	extra["simd.lane_steps"] = int64(kt.LaneSteps)
	extra["simd.trace_runs"] = int64(kt.TraceRuns)
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		writeProm(w, s.run.Export(), extra)
		return
	}
	snap := s.run.Snapshot()
	for name, v := range extra {
		snap[name] = v
	}
	writeJSON(w, http.StatusOK, snap)
}

// writeJSON encodes v with status code; encoding errors past the header
// are unrecoverable and dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
