package jobs_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"marchgen"
	"marchgen/internal/budget"
	"marchgen/internal/chaos"
	"marchgen/internal/jobs"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
	"marchgen/internal/store"
)

// testKey builds the canonical content key for a test request, the same
// way the service layer fingerprints submissions.
func testKey(faults string) string {
	return memo.NewFingerprinter("jobs-test").Str(faults).Key()
}

// genRequest is the test wire format: just a fault list.
type genRequest struct {
	Faults string `json:"faults"`
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// genExecutor runs the real generation engine and returns canonical
// result bytes — deterministic for a given fault list, which is what the
// byte-identity assertions lean on. count tracks invocations.
func genExecutor(count *atomic.Int64) jobs.Executor {
	return func(ctx context.Context, kind string, request json.RawMessage, run *obs.Run) ([]byte, error) {
		count.Add(1)
		var req genRequest
		if err := json.Unmarshal(request, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", budget.ErrUsage, err)
		}
		res, err := marchgen.GenerateCtx(ctx, req.Faults)
		if err != nil {
			return nil, err
		}
		return json.Marshal(map[string]any{
			"test":       res.Test.String(),
			"complexity": res.Complexity,
		})
	}
}

func newManager(t *testing.T, dir string, exec jobs.Executor) (*jobs.Manager, *store.Store) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.NewManager(jobs.Config{Store: st, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m, st
}

func waitDone(t *testing.T, j *jobs.Job) jobs.Record {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state: %+v", j.ID(), j.Snapshot())
	}
	return j.Snapshot()
}

func TestSubmitLifecycle(t *testing.T) {
	var calls atomic.Int64
	m, st := newManager(t, t.TempDir(), genExecutor(&calls))
	key := testKey("SAF,TF")
	req := mustJSON(t, genRequest{Faults: "SAF,TF"})

	j, created, err := m.Submit("generate", key, req)
	if err != nil || !created {
		t.Fatalf("Submit = %v, created=%v", err, created)
	}
	if j.ID() != jobs.JobID(key) {
		t.Fatalf("job id %q, want %q", j.ID(), jobs.JobID(key))
	}
	rec := waitDone(t, j)
	if rec.State != jobs.StateDone || rec.Error != nil {
		t.Fatalf("terminal record: %+v", rec)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(res)
	if rec.ResultHash != hex.EncodeToString(sum[:]) {
		t.Fatalf("ResultHash %s does not match result bytes", rec.ResultHash)
	}
	if !st.Has(jobs.NSResults, key) || !st.Has(jobs.NSJobs, rec.ID) {
		t.Fatal("result or record not durable")
	}
	// The engine ran and checkpointed at stage boundaries.
	if rec.Checkpoints == 0 || rec.Stage == "" {
		t.Fatalf("no checkpoints recorded: %+v", rec)
	}
	// Idempotent resubmission: same job, no second execution.
	j2, created, err := m.Submit("generate", key, req)
	if err != nil || created || j2.ID() != j.ID() {
		t.Fatalf("resubmit = %v, created=%v, id=%s", err, created, j2.ID())
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executor ran %d times, want 1", n)
	}
}

func TestEventsStreamAndReplay(t *testing.T) {
	var calls atomic.Int64
	m, _ := newManager(t, t.TempDir(), genExecutor(&calls))
	j, _, err := m.Submit("generate", testKey("SAF"), mustJSON(t, genRequest{Faults: "SAF"}))
	if err != nil {
		t.Fatal(err)
	}
	past, ch, cancel := j.Subscribe()
	defer cancel()
	var evs []jobs.Event
	evs = append(evs, past...)
	for ev := range ch { // closes at the terminal state
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	var sawProgress bool
	for i, ev := range evs {
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %+v", evs)
		}
		if ev.Type == "progress" {
			sawProgress = true
		}
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != jobs.StateDone || last.ResultHash == "" {
		t.Fatalf("final event %+v, want done with result hash", last)
	}
	if !sawProgress {
		t.Fatal("no progress events streamed")
	}
	// A late subscriber replays history and gets an already-closed channel.
	past2, ch2, cancel2 := j.Subscribe()
	defer cancel2()
	if len(past2) == 0 || past2[len(past2)-1].State != jobs.StateDone {
		t.Fatalf("replay missing terminal event: %+v", past2)
	}
	if _, open := <-ch2; open {
		t.Fatal("live channel of a finished job not closed")
	}
}

func TestResubmitAcrossRestartIsCacheHit(t *testing.T) {
	dir := t.TempDir()
	var callsA atomic.Int64
	mA, _ := newManager(t, dir, genExecutor(&callsA))
	jA, _, err := mA.Submit("generate", testKey("SAF"), mustJSON(t, genRequest{Faults: "SAF"}))
	if err != nil {
		t.Fatal(err)
	}
	recA := waitDone(t, jA)
	resA, err := jA.Result()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mA.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same store: the resubmission is served
	// from the durable record without executing anything.
	var callsB atomic.Int64
	mB, _ := newManager(t, dir, genExecutor(&callsB))
	jB, created, err := mB.Submit("generate", testKey("SAF"), mustJSON(t, genRequest{Faults: "SAF"}))
	if err != nil || created {
		t.Fatalf("restart resubmit = %v, created=%v", err, created)
	}
	recB := waitDone(t, jB)
	if recB.State != jobs.StateDone || recB.ResultHash != recA.ResultHash {
		t.Fatalf("restart record %+v, want done with hash %s", recB, recA.ResultHash)
	}
	resB, err := jB.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resA, resB) {
		t.Fatal("restart result differs")
	}
	if callsB.Load() != 0 {
		t.Fatal("executor ran on restart resubmission")
	}
}

// TestCrashResumeByteIdentical is the crash-safety assertion: a job whose
// process dies mid-run (after a durable checkpoint) is re-adopted by the
// next process, re-runs from its first stage and completes
// byte-identically to an uninterrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	const faults = "SAF,TF,CFin"
	key := testKey(faults)
	req := mustJSON(t, genRequest{Faults: faults})

	// Uninterrupted baseline in its own store.
	var base atomic.Int64
	mBase, _ := newManager(t, t.TempDir(), genExecutor(&base))
	jBase, _, err := mBase.Submit("generate", key, req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jBase)
	want, err := jBase.Result()
	if err != nil {
		t.Fatal(err)
	}
	marchgen.ResetCache()

	// Crash run: a second store. The executor cancels its context as soon
	// as the first pipeline stage completes — after the manager's
	// checkpoint observer persisted the record (observers run in
	// registration order), exactly the window a kill -9 between
	// checkpoints hits.
	dir := t.TempDir()
	var crashCalls atomic.Int64
	crashExec := func(ctx context.Context, kind string, request json.RawMessage, run *obs.Run) ([]byte, error) {
		crashCalls.Add(1)
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var once atomic.Bool
		run.Notify(func(ev obs.Event) {
			if ev.Name == "generate/expand" && once.CompareAndSwap(false, true) {
				cancel()
			}
		})
		var r genRequest
		if err := json.Unmarshal(request, &r); err != nil {
			return nil, err
		}
		res, err := marchgen.GenerateCtx(cctx, r.Faults)
		if err != nil {
			return nil, err
		}
		return json.Marshal(map[string]any{"test": res.Test.String(), "complexity": res.Complexity})
	}
	mCrash, st := newManager(t, dir, crashExec)
	defer marchgen.ResetCache()

	if _, _, err := mCrash.Submit("generate", key, req); err != nil {
		t.Fatal(err)
	}
	// The cancelled run must suspend, not fail: poll the durable record
	// until it reads checkpointed.
	id := jobs.JobID(key)
	deadline := time.Now().Add(30 * time.Second)
	for {
		raw, err := st.Get(jobs.NSJobs, id)
		if err == nil {
			var rec jobs.Record
			if json.Unmarshal(raw, &rec) == nil && rec.State == jobs.StateCheckpointed && rec.Checkpoints > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("interrupted job never persisted a checkpointed record")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancelClose := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelClose()
	if err := mCrash.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if crashCalls.Load() != 1 {
		t.Fatalf("crash executor ran %d times, want 1", crashCalls.Load())
	}
	// Drop the in-memory cache: the resume starts from the durable record
	// alone, as a genuinely new process would.
	marchgen.ResetCache()

	// Recovery process over the same store.
	var resumeCalls atomic.Int64
	mResume, _ := newManager(t, dir, genExecutor(&resumeCalls))
	n, err := mResume.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v, want 1 resumed", n, err)
	}
	j, ok := mResume.Get(id)
	if !ok {
		t.Fatal("recovered job vanished")
	}
	rec := waitDone(t, j)
	if rec.State != jobs.StateDone {
		t.Fatalf("resumed job ended %+v", rec)
	}
	if rec.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", rec.Resumes)
	}
	got, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n got: %s\nwant: %s", got, want)
	}
	sum := sha256.Sum256(got)
	if rec.ResultHash != hex.EncodeToString(sum[:]) {
		t.Fatal("resumed result hash mismatch")
	}
}

// TestHardKillRecover simulates a true SIGKILL: the record is durable in
// state running (no graceful interrupt ever ran) and the next process
// must still re-adopt and finish the job.
func TestHardKillRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("SAF")
	rec := jobs.Record{
		ID: jobs.JobID(key), Kind: "generate", Key: key,
		Request: mustJSON(t, genRequest{Faults: "SAF"}),
		State:   jobs.StateRunning, Stage: "atsp", Checkpoints: 3,
		CreatedAt: time.Now().UTC(),
	}
	raw, _ := json.Marshal(rec)
	if err := st.Put(jobs.NSJobs, rec.ID, raw); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	m, _ := newManager(t, dir, genExecutor(&calls))
	n, err := m.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	j, ok := m.Get(rec.ID)
	if !ok {
		t.Fatal("job not adopted")
	}
	got := waitDone(t, j)
	if got.State != jobs.StateDone || got.Resumes != 1 || got.Error != nil {
		t.Fatalf("recovered record %+v", got)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times", calls.Load())
	}
}

func TestTerminalErrorTyped(t *testing.T) {
	var calls atomic.Int64
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exec := func(ctx context.Context, kind string, request json.RawMessage, run *obs.Run) ([]byte, error) {
		calls.Add(1)
		return nil, fmt.Errorf("bad model: %w", budget.ErrUnsupportedFault)
	}
	m, err := jobs.NewManager(jobs.Config{
		Store: st, Exec: exec,
		ErrCode: func(err error) string {
			if errors.Is(err, budget.ErrUnsupportedFault) {
				return "unsupported_fault"
			}
			return "internal"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("bogus")
	j, _, err := m.Submit("generate", key, mustJSON(t, genRequest{Faults: "bogus"}))
	if err != nil {
		t.Fatal(err)
	}
	rec := waitDone(t, j)
	if rec.State != jobs.StateFailed || rec.Error == nil || rec.Error.Code != "unsupported_fault" {
		t.Fatalf("record %+v, want typed unsupported_fault failure", rec)
	}
	// Terminal failures are sticky: resubmitting returns the record, it
	// does not re-execute.
	j2, created, err := m.Submit("generate", key, mustJSON(t, genRequest{Faults: "bogus"}))
	if err != nil || created {
		t.Fatalf("resubmit after failure = %v, created=%v", err, created)
	}
	if s := j2.Snapshot(); s.State != jobs.StateFailed {
		t.Fatalf("resubmitted state %s", s.State)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times", calls.Load())
	}
}

func TestResumeLimit(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("SAF")
	rec := jobs.Record{
		ID: jobs.JobID(key), Kind: "generate", Key: key,
		Request: mustJSON(t, genRequest{Faults: "SAF"}),
		State:   jobs.StateCheckpointed, Resumes: 5,
		CreatedAt: time.Now().UTC(),
	}
	raw, _ := json.Marshal(rec)
	if err := st.Put(jobs.NSJobs, rec.ID, raw); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	m, _ := newManager(t, dir, genExecutor(&calls))
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	j, ok := m.Get(rec.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	got := waitDone(t, j)
	if got.State != jobs.StateFailed || got.Error == nil || got.Error.Code != "resume_limit" {
		t.Fatalf("record %+v, want resume_limit failure", got)
	}
	if calls.Load() != 0 {
		t.Fatal("executor ran for a resume-limited job")
	}
}

// TestStoreFailureIsTypedNeverHangs drives the result commit into a
// fully broken disk (every fsync injected to fail) and asserts the job
// ends in a typed terminal error rather than hanging or vanishing.
func TestStoreFailureIsTypedNeverHangs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exec := func(ctx context.Context, kind string, request json.RawMessage, run *obs.Run) ([]byte, error) {
		// Break the disk only once the submission record is durable.
		if err := chaos.Enable("fsync=1"); err != nil {
			t.Error(err)
		}
		return []byte("result"), nil
	}
	m, err := jobs.NewManager(jobs.Config{Store: st, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Disable()
	j, _, err := m.Submit("generate", testKey("SAF"), mustJSON(t, genRequest{Faults: "SAF"}))
	if err != nil {
		t.Fatal(err)
	}
	rec := waitDone(t, j)
	if rec.State != jobs.StateFailed || rec.Error == nil || rec.Error.Code != "store_io" {
		t.Fatalf("record %+v, want typed store_io failure", rec)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, _ := newManager(t, t.TempDir(), genExecutor(new(atomic.Int64)))
	if _, _, err := m.Submit("generate", "not-a-hash", nil); err == nil {
		t.Fatal("malformed key accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit("generate", testKey("SAF"), nil); !errors.Is(err, jobs.ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}
