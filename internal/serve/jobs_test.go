package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"marchgen"
	"marchgen/internal/jobs"
	"marchgen/internal/store"
)

// newStoreServer builds a Server with a durable job store in a temp
// directory. The helper resets the shared memo cache on cleanup to keep
// tests independent.
func newStoreServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		// Suspend any job still running so the store directory is quiet
		// before TempDir removal.
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		marchgen.ResetCache()
	})
	return s, ts, st
}

// waitJobDone polls GET /v1/jobs/{id} until the job is terminal.
func waitJobDone(t *testing.T, base, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var body JobStatusResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status %d: %+v", resp.StatusCode, body)
		}
		if body.State == string(jobs.StateDone) || body.State == string(jobs.StateFailed) {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobsLifecycleEndpoint(t *testing.T) {
	marchgen.ResetCache()
	_, ts, st := newStoreServer(t, Config{})

	resp, raw := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind: "generate", Generate: &GenerateRequest{Faults: "SAF"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202: %s", resp.StatusCode, raw)
	}
	var sub JobStatusResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || !strings.HasPrefix(sub.ID, "j-") {
		t.Fatalf("bad job id %q", sub.ID)
	}

	done := waitJobDone(t, ts.URL, sub.ID)
	if done.State != string(jobs.StateDone) || done.Error != nil {
		t.Fatalf("job ended %+v", done)
	}
	// The live in-memory record must carry timestamps, not just the
	// durable copy: updated_at advances past created_at as the job runs.
	if done.CreatedAt.IsZero() || done.UpdatedAt.IsZero() || done.UpdatedAt.Before(done.CreatedAt) {
		t.Fatalf("job timestamps created_at=%v updated_at=%v", done.CreatedAt, done.UpdatedAt)
	}
	if done.Result == nil {
		t.Fatal("done job status missing result document")
	}
	sum := sha256.Sum256(done.Result)
	if done.ResultHash != hex.EncodeToString(sum[:]) {
		t.Fatalf("result_hash %s does not hash the result bytes", done.ResultHash)
	}
	var res JobGenerateResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Complexity != 4 || res.Test == "" {
		t.Fatalf("generate job result %+v, want 4n SAF test", res)
	}

	// The store keeps job records and results only: neither the job nor
	// a synchronous generate writes the engine's memo to it.
	if resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "SAF,TF,ADF"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d: %s", resp.StatusCode, raw)
	}
	memoKeys, err := st.List("memo")
	if err != nil {
		t.Fatal(err)
	}
	if len(memoKeys) != 0 {
		t.Fatalf("store holds %d engine memo entries, want none", len(memoKeys))
	}

	// Idempotent resubmission: 200 (not 202), same id, served from the
	// durable record.
	resp2, raw2 := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind: "generate", Generate: &GenerateRequest{Faults: "SAF"},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200: %s", resp2.StatusCode, raw2)
	}
	var again JobStatusResponse
	if err := json.Unmarshal(raw2, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != sub.ID || again.State != string(jobs.StateDone) {
		t.Fatalf("resubmit got %+v", again)
	}
}

func TestJobsSimulateKind(t *testing.T) {
	_, ts, _ := newStoreServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind: "simulate", Simulate: &VerifyRequest{Known: "MarchC-", Faults: "SAF,TF", Cells: 8},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var sub JobStatusResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	done := waitJobDone(t, ts.URL, sub.ID)
	var res JobVerifyResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Cells != 8 {
		t.Fatalf("simulate job result %+v", res)
	}
}

func TestJobsSSEStream(t *testing.T) {
	marchgen.ResetCache()
	_, ts, _ := newStoreServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind: "generate", Generate: &GenerateRequest{Faults: "SAF,TF"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub JobStatusResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}

	es, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	// The stream ends (EOF) after the summary frame, so reading to EOF
	// terminates. Track event names and the summary payload.
	var events []string
	var summary JobStatusResponse
	var sawRetry bool
	sc := bufio.NewScanner(es.Body)
	current := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "retry:"):
			sawRetry = true
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
			events = append(events, current)
		case strings.HasPrefix(line, "data: ") && current == "summary":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &summary); err != nil {
				t.Fatalf("summary frame: %v", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawRetry {
		t.Fatal("no retry hint in stream")
	}
	var state, progress int
	for _, e := range events {
		switch e {
		case "state":
			state++
		case "progress":
			progress++
		}
	}
	if state == 0 || progress == 0 {
		t.Fatalf("stream missing event kinds: %v", events)
	}
	if events[len(events)-1] != "summary" {
		t.Fatalf("stream did not end with summary: %v", events)
	}
	if summary.State != string(jobs.StateDone) || summary.ResultHash == "" {
		t.Fatalf("summary %+v, want done with hash", summary)
	}
}

func TestJobsDisabledWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []func() (*http.Response, []byte){
		func() (*http.Response, []byte) {
			return post(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "SAF"}})
		},
		func() (*http.Response, []byte) {
			resp, err := http.Get(ts.URL + "/v1/jobs/j-000000000000000000000000")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp, buf.Bytes()
		},
	} {
		resp, raw := req()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
		}
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != "jobs_disabled" {
			t.Fatalf("code %q, want jobs_disabled: %s", e.Code, raw)
		}
	}
}

func TestJobsNotFoundAndValidation(t *testing.T) {
	_, ts, _ := newStoreServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "SAF"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}

	gr, err := http.Get(ts.URL + "/v1/jobs/j-ffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status %d, want 404", gr.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(gr.Body).Decode(&e); err != nil || e.Code != "job_not_found" {
		t.Fatalf("code %q, want job_not_found", e.Code)
	}

	cases := []struct {
		name string
		body any
		code string
	}{
		{"unknown kind", JobSubmitRequest{Kind: "frobnicate", Generate: &GenerateRequest{Faults: "SAF"}}, "bad_request"},
		{"no subrequest", JobSubmitRequest{Kind: "generate"}, "bad_request"},
		{"two subrequests", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "SAF"}, Verify: &VerifyRequest{Known: "MATS+", Faults: "SAF"}}, "bad_request"},
		{"kind mismatch", JobSubmitRequest{Kind: "verify", Generate: &GenerateRequest{Faults: "SAF"}}, "bad_request"},
		{"bad faults", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "NOPE"}}, "bad_request"},
		{"bad budget", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "SAF", Budget: "nodes=0"}}, "usage"},
		{"negative workers", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "SAF", Workers: -1}}, "usage"},
		{"bad cells", JobSubmitRequest{Kind: "simulate", Simulate: &VerifyRequest{Known: "MATS+", Faults: "SAF", Cells: 1}}, "usage"},
		{"retired solver field", map[string]any{"kind": "generate", "generate": map[string]any{"faults": "SAF", "solver": "quantum"}}, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, ts.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || e.Code != tc.code {
				t.Fatalf("code %q, want %q: %s", e.Code, tc.code, raw)
			}
		})
	}
}

// TestJobsDrainShedsSubmitServesStatus: during drain new submissions are
// shed with Retry-After, but status reads of existing jobs keep working —
// a restarting client never loses sight of its job.
func TestJobsDrainShedsSubmitServesStatus(t *testing.T) {
	s, ts, _ := newStoreServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "SAF"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub JobStatusResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, ts.URL, sub.ID)

	s.BeginDrain()
	shed, shedRaw := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "SAF,TF"}})
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status %d, want 503: %s", shed.StatusCode, shedRaw)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("draining submit without Retry-After")
	}
	// Status still served.
	done := waitJobDone(t, ts.URL, sub.ID)
	if done.State != string(jobs.StateDone) {
		t.Fatalf("status during drain: %+v", done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReadyzDrainRetryAfter is the drain-endpoint regression: once
// BeginDrain runs, /readyz answers 503 with a Retry-After hint.
func TestReadyzDrainRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready readyz status %d", resp.StatusCode)
	}
	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz without Retry-After")
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["status"] != "draining" {
		t.Fatalf("draining readyz body %v", body)
	}
}

// TestJobsRestartResume is the service-level crash story: a job whose
// process shuts down mid-wait is re-adopted by the next server over the
// same store and completes with the canonical result document.
func TestJobsRestartResume(t *testing.T) {
	marchgen.ResetCache()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sA := New(Config{Store: st, MaxInFlight: 1})
	tsA := httptest.NewServer(sA.Handler())
	defer tsA.Close()

	// Occupy the only engine permit so the job deterministically blocks
	// before execution, then drain: the manager suspends the job in a
	// resumable state, exactly as SIGTERM mid-queue would.
	sA.sem <- struct{}{}
	resp, raw := post(t, tsA.URL+"/v1/jobs", JobSubmitRequest{Kind: "generate", Generate: &GenerateRequest{Faults: "SAF,TF"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub JobStatusResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	sA.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sA.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	<-sA.sem
	tsA.Close()
	marchgen.ResetCache()

	// The durable record survived in a non-terminal state.
	rawRec, err := st.Get(jobs.NSJobs, sub.ID)
	if err != nil {
		t.Fatalf("record lost across shutdown: %v", err)
	}
	var rec jobs.Record
	if err := json.Unmarshal(rawRec, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State.Terminal() {
		t.Fatalf("suspended job is terminal: %+v", rec)
	}
	// Records persisted before the generate request's solver field was
	// retired still carry it: the resumed job must run and commit the same
	// document, because re-execution decodes the stored request leniently.
	var stored struct {
		Kind     string         `json:"kind"`
		Generate map[string]any `json:"generate"`
	}
	if err := json.Unmarshal(rec.Request, &stored); err != nil {
		t.Fatal(err)
	}
	stored.Generate["solver"] = "joint"
	if rec.Request, err = json.Marshal(stored); err != nil {
		t.Fatal(err)
	}
	if rawRec, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(jobs.NSJobs, sub.ID, rawRec); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh server over the same store re-adopts and finishes.
	sB := New(Config{Store: st})
	tsB := httptest.NewServer(sB.Handler())
	t.Cleanup(func() {
		tsB.Close()
		marchgen.ResetCache()
	})
	if sB.RecoveredJobs() != 1 {
		t.Fatalf("RecoveredJobs = %d, want 1", sB.RecoveredJobs())
	}
	done := waitJobDone(t, tsB.URL, sub.ID)
	if done.State != string(jobs.StateDone) || done.Resumes != 1 {
		t.Fatalf("resumed job %+v", done)
	}
	// The committed document matches an uninterrupted local computation
	// of the same canonical result.
	res, err := marchgen.Generate("SAF,TF")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(JobGenerateResult{
		Test:       res.Test.String(),
		ASCII:      res.Test.ASCII(),
		Complexity: res.Complexity,
		Instances:  len(res.Instances),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(done.Result, want) {
		t.Fatalf("resumed result differs:\n got %s\nwant %s", done.Result, want)
	}
}

// TestLeaderDisconnectFollowersServed: the coalescing leader's client
// disconnects while the run is gated; followers joined on the same key
// must still receive the full result (the run is refcounted, not owned
// by the leader's connection).
func TestLeaderDisconnectFollowersServed(t *testing.T) {
	marchgen.ResetCache()
	s, ts, gate := newGatedServer(t, Config{MaxInFlight: 2}, true)

	lctx, lcancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(GenerateRequest{Faults: fiveFaults})
	leaderErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(lctx, "POST", ts.URL+"/v1/generate", bytes.NewReader(body))
		if err != nil {
			leaderErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	waitMetric(t, s, "serve.admitted", 1)

	const followers = 3
	var wg sync.WaitGroup
	statuses := make([]int, followers)
	tests := make([]string, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: fiveFaults})
			statuses[i] = resp.StatusCode
			var b GenerateResponse
			if err := json.Unmarshal(raw, &b); err != nil {
				t.Errorf("follower %d: %v: %s", i, err, raw)
				return
			}
			tests[i] = b.Test
		}(i)
	}
	waitMetric(t, s, "serve.coalesced", followers)

	// The winning (leader) client walks away mid-run.
	lcancel()
	if err := <-leaderErr; err == nil {
		t.Fatal("canceled leader request returned no error")
	}
	close(gate)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("follower %d: status %d", i, st)
		}
		if tests[i] == "" || tests[i] != tests[0] {
			t.Fatalf("follower %d: test %q differs", i, tests[i])
		}
	}
	if runs := s.run.Snapshot()["serve.engine_runs"]; runs != 1 {
		t.Fatalf("engine_runs = %d, want 1", runs)
	}
}
