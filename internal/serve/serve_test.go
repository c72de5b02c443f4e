package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"marchgen"
	"marchgen/march"
)

// fiveFaults is the Table 3 headline list — expensive enough cold
// (~100ms+) that concurrent requests reliably overlap in flight.
const fiveFaults = "SAF,TF,ADF,CFin,CFid"

// newTestServer builds a Server behind an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	s, ts, _ := newGatedServer(t, cfg, false)
	return s, ts
}

// newGatedServer additionally installs the leader gate (before the
// listener exists, so no handler can observe a half-written field) when
// gated is true.
func newGatedServer(t *testing.T, cfg Config, gated bool) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	s := New(cfg)
	var gate chan struct{}
	if gated {
		gate = make(chan struct{})
		s.testLeaderGate = gate
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, gate
}

// post sends a JSON body and returns the response with its raw bytes.
func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// metric polls the server's metric snapshot until name reaches at least
// want, failing the test after a generous deadline.
func waitMetric(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := s.run.Snapshot()[name]; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %d (snapshot: %v)", name, want, s.run.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestGenerateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "SAF"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got GenerateResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Complexity != 4 {
		t.Fatalf("SAF generated %dn, want 4n: %s", got.Complexity, got.Test)
	}
	if got.Test == "" || got.ASCII == "" || got.RequestID == "" {
		t.Fatalf("incomplete response: %s", raw)
	}
	// The wire test must parse back and verify complete, like the CLI path.
	parsed, err := march.Parse(got.Test)
	if err != nil {
		t.Fatalf("served test does not parse: %v", err)
	}
	rep, err := marchgen.Verify(parsed, "SAF")
	if err != nil || !rep.Complete {
		t.Fatalf("served test does not verify complete: %v", err)
	}
}

// TestCoalescing is the acceptance check: 8 concurrent identical
// generate requests perform exactly one engine run and return
// byte-identical March tests. The leader gate holds the engine until
// every follower has joined, so the assertion is deterministic.
func TestCoalescing(t *testing.T) {
	marchgen.ResetCache()
	s, ts, gate := newGatedServer(t, Config{MaxInFlight: 2}, true)

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	tests := make([]string, n)
	bodies := make([]GenerateResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: fiveFaults})
			statuses[i] = resp.StatusCode
			if err := json.Unmarshal(raw, &bodies[i]); err != nil {
				t.Errorf("req %d: %v", i, err)
			}
			tests[i] = bodies[i].Test
		}(i)
	}
	// All 8 present: 1 leader holding the gate + 7 coalesced followers.
	waitMetric(t, s, "serve.coalesced", n-1)
	close(gate)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d", i, st)
		}
		if tests[i] != tests[0] {
			t.Fatalf("request %d returned a different test:\n%s\nvs\n%s", i, tests[i], tests[0])
		}
		if bodies[i].Complexity != 10 {
			t.Fatalf("request %d: complexity %d, want 10", i, bodies[i].Complexity)
		}
	}
	snap := s.run.Snapshot()
	if snap["serve.engine_runs"] != 1 {
		t.Fatalf("engine_runs = %d, want exactly 1", snap["serve.engine_runs"])
	}
	coal := 0
	for _, b := range bodies {
		if b.Coalesced {
			coal++
		}
	}
	if coal != n-1 {
		t.Fatalf("%d responses marked coalesced, want %d", coal, n-1)
	}
}

// TestShedOnOverload fills the admission window and asserts the next
// request is shed with 503 + Retry-After, while the admitted requests
// still complete.
func TestShedOnOverload(t *testing.T) {
	s, ts, gate := newGatedServer(t, Config{MaxInFlight: 1, QueueDepth: 1}, true)

	var wg sync.WaitGroup
	admitted := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct fault lists: two separate leaders occupying the window.
			resp, _ := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: fmt.Sprintf("SAF,TF%s", strings.Repeat(",ADF", i))})
			admitted[i] = resp.StatusCode
		}(i)
	}
	waitMetric(t, s, "serve.admitted", 2)

	resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "CFin"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != "overloaded" {
		t.Fatalf("shed body: %s", raw)
	}

	close(gate)
	wg.Wait()
	for i, st := range admitted {
		if st != http.StatusOK {
			t.Fatalf("admitted request %d: status %d", i, st)
		}
	}
	if s.run.Snapshot()["serve.shed"] < 1 {
		t.Fatal("shed counter not incremented")
	}
}

// TestMidRequestCancellation cancels the only interested client while
// the leader holds the gate; the refcount hits zero, the engine context
// is canceled, and the run aborts with ErrCanceled instead of running.
func TestMidRequestCancellation(t *testing.T) {
	marchgen.ResetCache()
	s, ts, gate := newGatedServer(t, Config{}, true)

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(GenerateRequest{Faults: fiveFaults})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	waitMetric(t, s, "serve.admitted", 1)
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled request returned without error")
	}
	close(gate)
	// The abandoned engine run must observe its canceled context and
	// complete (the handler's canceled counter is best-effort since the
	// client is gone; the engine-side completion is the invariant).
	waitMetric(t, s, "serve.engine_runs", 1)
	waitMetric(t, s, "serve.generate.errors.canceled", 1)
}

// TestGracefulDrain flips the server to draining with one request in
// flight: readyz and new work return 503, the in-flight request
// completes, and Drain returns.
func TestGracefulDrain(t *testing.T) {
	s, ts, gate := newGatedServer(t, Config{}, true)

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "SAF,TF"})
		done <- resp.StatusCode
	}()
	waitMetric(t, s, "serve.admitted", 1)

	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", resp.StatusCode)
	}
	shedResp, _ := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "SAF"})
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining generate status %d, want 503", shedResp.StatusCode)
	}
	if shedResp.Header.Get("Retry-After") == "" {
		t.Fatal("draining shed without Retry-After")
	}

	close(gate)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestQueuedLeaderHonoursDeadline locks deadline-aware permit queueing
// for generate leaders: with the only engine permit held, a distinct
// request whose timeout_ms passes while its leader waits for a permit is
// answered 504 on time and never counts as an engine run. The gate also
// opens from a timer, so a leader that ignores its deadline fails the
// test instead of hanging it.
func TestQueuedLeaderHonoursDeadline(t *testing.T) {
	marchgen.ResetCache()
	s, ts, gate := newGatedServer(t, Config{MaxInFlight: 1}, true)
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	timer := time.AfterFunc(2*time.Second, open)
	defer timer.Stop()
	defer open()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(`{"faults":"SAF,TF"}`))
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	for deadline := time.Now().Add(10 * time.Second); len(s.sem) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("first leader never took the engine permit")
		}
	}

	start := time.Now()
	resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "SAF", TimeoutMS: 100})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued leader: status %d, want 504: %s", resp.StatusCode, raw)
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != "deadline_exceeded" {
		t.Fatalf("queued leader body: %s", raw)
	}
	if elapsed > time.Second {
		t.Fatalf("queued leader answered after %v, want its 100ms deadline honoured within 1s", elapsed)
	}

	open()
	if st := <-first; st != http.StatusOK {
		t.Fatalf("permit holder: status %d, want 200", st)
	}
	if got := s.run.Snapshot()["serve.engine_runs"]; got != 1 {
		t.Fatalf("serve.engine_runs = %d, want 1: the expired leader must not reach the engine", got)
	}
}

// TestDeadlineExceeded asserts the 504 mapping: a cold expensive run
// under a 1ms hard deadline aborts with deadline_exceeded.
func TestDeadlineExceeded(t *testing.T) {
	marchgen.ResetCache()
	_, ts := newTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: fiveFaults, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, raw)
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != "deadline_exceeded" {
		t.Fatalf("body: %s", raw)
	}
}

func TestVerifyAndSimulateEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, raw := post(t, ts.URL+"/v1/verify", VerifyRequest{Known: "MATS+", Faults: "SAF,TF"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify status %d: %s", resp.StatusCode, raw)
	}
	var rep VerifyResponse
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("MATS+ must not cover TF completely")
	}
	if len(rep.Missed) == 0 || len(rep.Instances) == 0 {
		t.Fatalf("verify response incomplete: %s", raw)
	}

	resp, raw = post(t, ts.URL+"/v1/simulate", VerifyRequest{Known: "MarchC-", Faults: "SAF,TF", Cells: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, raw)
	}
	var sim VerifyResponse
	if err := json.Unmarshal(raw, &sim); err != nil {
		t.Fatal(err)
	}
	if !sim.Complete || sim.Cells != 8 {
		t.Fatalf("MarchC- 8-cell simulate: complete=%v cells=%d: %s", sim.Complete, sim.Cells, raw)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		code   string
	}{
		{"unknown fault", "/v1/generate", GenerateRequest{Faults: "NOPE"}, 400, "bad_request"},
		{"empty faults", "/v1/generate", GenerateRequest{}, 400, "bad_request"},
		{"bad budget", "/v1/generate", GenerateRequest{Faults: "SAF", Budget: "nodes=0"}, 400, "usage"},
		{"negative workers", "/v1/generate", GenerateRequest{Faults: "SAF", Workers: -1}, 400, "usage"},
		{"negative timeout", "/v1/generate", GenerateRequest{Faults: "SAF", TimeoutMS: -5}, 400, "usage"},
		{"unknown field", "/v1/generate", map[string]any{"faults": "SAF", "bogus": 1}, 400, "bad_request"},
		{"retired solver field", "/v1/generate", map[string]any{"faults": "SAF", "solver": "warm"}, 400, "bad_request"},
		{"unknown known", "/v1/verify", VerifyRequest{Known: "MarchZ", Faults: "SAF"}, 400, "bad_request"},
		{"test and known", "/v1/verify", VerifyRequest{Known: "MATS+", Test: "{ ⇕(w0) }", Faults: "SAF"}, 400, "bad_request"},
		{"bad cells", "/v1/simulate", VerifyRequest{Known: "MATS+", Faults: "SAF", Cells: 1}, 400, "usage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || e.Code != tc.code {
				t.Fatalf("code %q, want %q: %s", e.Code, tc.code, raw)
			}
		})
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "SAF"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]int64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics not a flat int64 map: %v: %s", err, raw)
	}
	for _, key := range []string{"serve.generate.requests", "serve.admitted", "serve.engine_runs", "memo.shared.entries", "serve.uptime_us"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("metrics missing %q: %s", key, raw)
		}
	}
}

// TestNoGoroutineLeaks exercises the coalescing, cancellation and drain
// machinery and then insists the goroutine count settles back — the
// -race CI job turns any stragglers into failures here.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		marchgen.ResetCache()
		s, ts := newTestServer(t, Config{MaxInFlight: 2})
		var wg sync.WaitGroup
		for i := 0; i < 12; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "SAF,TF"})
			}(i)
		}
		wg.Wait()
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		ts.Close()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
