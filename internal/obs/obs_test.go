package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every handle must accept every method on nil without panicking.
	var r *Run
	sp := r.Start("x")
	sp.SetInt("n", 1).SetStr("s", "v").SetWorker(2)
	sp.Child("y").End()
	sp.End()
	r.Counter("c").Add(1)
	r.Counter("c").Inc()
	r.Gauge("g").Set(3)
	r.Gauge("g").Max(4)
	r.Histogram("h").Observe(5)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil run snapshot = %v, want nil", got)
	}
	if got := r.Events(); got != nil {
		t.Fatalf("nil run events = %v, want nil", got)
	}
	r.DeferTrace(&bytes.Buffer{})
	if err := r.Flush(); err != nil {
		t.Fatalf("nil run flush: %v", err)
	}
	var st *Stages
	st.Enter("a")
	st.Close()
	if got := st.Elapsed(); got != nil {
		t.Fatalf("nil stages elapsed = %v, want nil", got)
	}
	if From(context.Background()) != nil {
		t.Fatal("From(background) != nil")
	}
	if From(nil) != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatal("From(nil) != nil")
	}
	if ctx := context.Background(); Into(ctx, nil) != ctx {
		t.Fatal("Into(ctx, nil) should return ctx unchanged")
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRun()
	root := r.Start("generate")
	sel := root.Child("generate/select")
	bb := sel.Child("generate/select/atsp/branchbound")
	bb.SetInt("expanded", 42).SetStr("mode", "parallel")
	bb.End()
	bb.End() // idempotent
	sel.End()
	root.SetInt("tests", 2)
	root.End()

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Sequence order is creation order: root, sel, bb.
	if evs[0].Name != "generate" || evs[1].Name != "generate/select" || evs[2].Name != "generate/select/atsp/branchbound" {
		t.Fatalf("unexpected order: %v %v %v", evs[0].Name, evs[1].Name, evs[2].Name)
	}
	if evs[1].Parent != evs[0].Seq {
		t.Fatalf("select parent = %d, want %d", evs[1].Parent, evs[0].Seq)
	}
	if evs[2].Parent != evs[1].Seq {
		t.Fatalf("branchbound parent = %d, want %d", evs[2].Parent, evs[1].Seq)
	}
	if evs[2].Attrs["expanded"] != int64(42) || evs[2].Attrs["mode"] != "parallel" {
		t.Fatalf("branchbound attrs = %v", evs[2].Attrs)
	}
	if evs[0].Attrs["tests"] != int64(2) {
		t.Fatalf("root attrs = %v", evs[0].Attrs)
	}
	if got := r.Snapshot()["obs.spans"]; got != 3 {
		t.Fatalf("obs.spans = %d, want 3", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	// Hammer spans and metrics from many goroutines; -race is the real
	// assertion, the counts confirm nothing was lost.
	r := NewRun()
	root := r.Start("root")
	const workers, per = 8, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := root.Child("work").SetWorker(w).SetInt("i", int64(i))
				r.Counter("n").Inc()
				r.Gauge("max").Max(int64(i))
				r.Histogram("lat").Observe(int64(i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	evs := r.Events()
	if len(evs) != workers*per+1 {
		t.Fatalf("got %d events, want %d", len(evs), workers*per+1)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not in strictly increasing seq order at %d", i)
		}
	}
	snap := r.Snapshot()
	if snap["n"] != workers*per {
		t.Fatalf("counter n = %d, want %d", snap["n"], workers*per)
	}
	if snap["max"] != per-1 {
		t.Fatalf("gauge max = %d, want %d", snap["max"], per-1)
	}
	if snap["lat.count"] != workers*per || snap["lat.min"] != 0 || snap["lat.max"] != per-1 {
		t.Fatalf("histogram lat snapshot = %v", snap)
	}
}

func TestRecorderCap(t *testing.T) {
	r := NewRun()
	for i := 0; i < maxSpans+100; i++ {
		r.Start("s").End()
	}
	snap := r.Snapshot()
	if snap["obs.spans"] != maxSpans {
		t.Fatalf("obs.spans = %d, want %d", snap["obs.spans"], maxSpans)
	}
	if snap["obs.spans_dropped"] != 100 {
		t.Fatalf("obs.spans_dropped = %d, want 100", snap["obs.spans_dropped"])
	}
}

func TestStagesPartition(t *testing.T) {
	r := NewRun()
	root := r.Start("generate")
	st := NewStages(r, root, "generate/")
	st.Enter("expand")
	time.Sleep(2 * time.Millisecond)
	st.Enter("expand") // same stage: no-op, time keeps accruing
	st.Enter("atsp")
	time.Sleep(2 * time.Millisecond)
	st.Enter("expand") // revisiting accumulates
	time.Sleep(2 * time.Millisecond)
	live := st.Elapsed()
	if live["expand"] <= 0 || live["atsp"] <= 0 {
		t.Fatalf("live elapsed missing stages: %v", live)
	}
	st.Close()
	st.Close() // idempotent
	root.End()

	got := st.Elapsed()
	if len(got) != 2 {
		t.Fatalf("stages = %v, want expand+atsp", got)
	}
	for name, d := range got {
		if d <= 0 {
			t.Fatalf("stage %s elapsed = %v, want > 0", name, d)
		}
	}
	// Windows partition the wall time between first Enter and Close: the
	// sum can never exceed the root window.
	snap := r.Snapshot()
	if snap["stage.expand.ns"] <= 0 || snap["stage.atsp.ns"] <= 0 {
		t.Fatalf("stage counters missing: %v", snap)
	}
	evs := r.Events()
	names := map[string]int{}
	for _, ev := range evs {
		names[ev.Name]++
	}
	if names["generate/expand"] != 2 || names["generate/atsp"] != 1 {
		t.Fatalf("stage spans = %v", names)
	}
	// Enter after Close is ignored.
	if sp := st.Enter("late"); sp != nil {
		t.Fatal("Enter after Close returned a live span")
	}
	if _, ok := st.Elapsed()["late"]; ok {
		t.Fatal("Enter after Close recorded time")
	}
}

func TestStagesWithoutRun(t *testing.T) {
	st := NewStages(nil, nil, "")
	st.Enter("a")
	time.Sleep(time.Millisecond)
	st.Enter("b")
	st.Close()
	got := st.Elapsed()
	if got["a"] <= 0 {
		t.Fatalf("unobserved stages still must track time: %v", got)
	}
	if _, ok := got["b"]; !ok {
		t.Fatalf("stage b missing: %v", got)
	}
}

func TestStreamAndDeferredTrace(t *testing.T) {
	r := NewRun()
	var deferred bytes.Buffer
	r.DeferTrace(&deferred)
	root := r.Start("a")
	root.Child("a/b").End()
	root.End()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// The deferred dump is in seq order (parent first), although the
	// child ended first.
	defLines := strings.Split(strings.TrimSpace(deferred.String()), "\n")
	if len(defLines) != 2 {
		t.Fatalf("deferred=%d lines, want 2", len(defLines))
	}
	var first Event
	if err := json.Unmarshal([]byte(defLines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "a" {
		t.Fatalf("deferred first span = %q, want %q", first.Name, "a")
	}
}

// TestUntracedRunKeepsNoSpans pins span retention to trace output: an
// untraced run, and the run Flags.Start makes without -trace or
// -chrome-trace, counts its finished spans and hands them to its
// observers but keeps none, while a traced run keeps them for the
// trace.
func TestUntracedRunKeepsNoSpans(t *testing.T) {
	dir := t.TempDir()
	started := func(f Flags) *Run {
		t.Helper()
		r, finish, err := f.Start(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(finish)
		return r
	}
	cases := []struct {
		name string
		run  *Run
		kept int
	}{
		{"NewUntracedRun", NewUntracedRun(), 0},
		{"-metrics", started(Flags{Metrics: true}), 0},
		{"-progress", started(Flags{Progress: true}), 0},
		{"-trace", started(Flags{Trace: filepath.Join(dir, "t.jsonl")}), 3},
		{"-chrome-trace", started(Flags{Chrome: filepath.Join(dir, "c.json")}), 3},
	}
	for _, c := range cases {
		observed := 0
		c.run.Notify(func(Event) { observed++ })
		root := c.run.Start("a")
		root.Child("a/b").End()
		root.Child("a/c").End()
		root.End()
		if n := len(c.run.Events()); n != c.kept {
			t.Errorf("%s: %d spans kept, want %d", c.name, n, c.kept)
		}
		if n := c.run.Snapshot()["obs.spans"]; n != 3 {
			t.Errorf("%s: obs.spans = %d, want 3", c.name, n)
		}
		if observed != 3 {
			t.Errorf("%s: %d spans observed, want 3", c.name, observed)
		}
	}
}

func TestChromeTrace(t *testing.T) {
	r := NewRun()
	sp := r.Start("x").SetWorker(3).SetInt("n", 7)
	sp.End()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(evs) != 1 || evs[0]["name"] != "x" || evs[0]["ph"] != "X" || evs[0]["tid"] != float64(3) {
		t.Fatalf("chrome events = %v", evs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRun()
	ctx := Into(context.Background(), r)
	if From(ctx) != r {
		t.Fatal("From(Into(ctx, r)) != r")
	}
}

// TestQuietSpans: under Quiet, SpanUnder opens no span while the run's
// metrics still count; outside it, SpanUnder is StartUnder.
func TestQuietSpans(t *testing.T) {
	r := NewRun()
	ctx := Into(context.Background(), r)
	SpanUnder(ctx, "loud").End()
	quiet := Quiet(ctx)
	if From(quiet) != r {
		t.Fatal("Quiet detached the run")
	}
	if sp := SpanUnder(quiet, "quiet"); sp != nil {
		t.Fatalf("SpanUnder under Quiet = %v, want nil", sp)
	}
	From(quiet).Counter("work").Inc()
	evs := r.Events()
	if len(evs) != 1 || evs[0].Name != "loud" {
		t.Fatalf("events %v, want only the loud span", evs)
	}
	if n := r.Snapshot()["work"]; n != 1 {
		t.Fatalf("work = %d under Quiet, want 1", n)
	}
	if SpanUnder(context.Background(), "unobserved") != nil {
		t.Fatal("SpanUnder without a run must return nil")
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRun()
	r.Counter("x").Add(9)
	addr, stop, err := r.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind: %v", err)
	}
	defer stop()
	if addr == "" {
		t.Fatal("empty bound address")
	}
}

func TestSnapshotHistogramFields(t *testing.T) {
	r := NewRun()
	h := r.Histogram("d")
	h.Observe(5)
	h.Observe(100)
	snap := r.Snapshot()
	if snap["d.count"] != 2 || snap["d.sum"] != 105 || snap["d.min"] != 5 || snap["d.max"] != 100 {
		t.Fatalf("histogram snapshot = %v", snap)
	}
	names := MetricNames(snap)
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("MetricNames not sorted: %v", names)
		}
	}
}
