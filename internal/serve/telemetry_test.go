package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"marchgen"
	"marchgen/internal/jobs"
	"marchgen/internal/obs"
)

// promNameRe is the Prometheus metric-name charset (text format 0.0.4).
var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promFamily is one parsed exposition family: declared type plus the
// samples that followed the TYPE line.
type promFamily struct {
	kind    string
	samples []promSample
}

type promSample struct {
	name  string // full sample name including _bucket/_sum/_count suffix
	le    string // the le label on histogram buckets, "" otherwise
	value int64
}

// parseProm is a strict parser for the subset of the Prometheus text
// format writeProm emits: every sample must follow a TYPE declaration
// of its family, names must be legal, values integral.
func parseProm(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	var cur *promFamily
	var curName string
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{le="([^"]+)"\})? (-?\d+)$`)
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			name, kind := parts[2], parts[3]
			if !promNameRe.MatchString(name) {
				t.Fatalf("line %d: illegal family name %q", ln+1, name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown family kind %q", ln+1, kind)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate family %q", ln+1, name)
			}
			cur = &promFamily{kind: kind}
			curName = name
			families[name] = cur
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparsable sample line %q", ln+1, line)
		}
		if cur == nil {
			t.Fatalf("line %d: sample %q before any TYPE line", ln+1, m[1])
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if base != curName {
			t.Fatalf("line %d: sample %q outside its family %q", ln+1, m[1], curName)
		}
		v, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			t.Fatalf("line %d: %v", ln+1, err)
		}
		cur.samples = append(cur.samples, promSample{name: m[1], le: m[2], value: v})
	}
	return families
}

// TestMetricsPrometheusExposition drives one generate request, scrapes
// /metrics as a Prometheus client would, and checks the exposition
// parses, the request counters appear, and every histogram is
// le-cumulative with +Inf equal to _count.
func TestMetricsPrometheusExposition(t *testing.T) {
	marchgen.ResetCache()
	_, ts := newTestServer(t, Config{})
	if resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: "SAF,TF"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: %d %s", resp.StatusCode, raw)
	}

	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", got)
	}

	families := parseProm(t, string(body))
	for _, want := range []struct{ name, kind string }{
		{"serve_generate_ok", "counter"},
		{"serve_http_generate_requests", "counter"},
		{"serve_http_generate_inflight", "gauge"},
		{"serve_http_generate_latency_us", "histogram"},
		{"serve_active_now", "gauge"},
		{"obs_spans", "counter"},
	} {
		fam, ok := families[want.name]
		if !ok {
			t.Fatalf("exposition missing family %s", want.name)
		}
		if fam.kind != want.kind {
			t.Fatalf("%s kind = %s, want %s", want.name, fam.kind, want.kind)
		}
	}
	if v := families["serve_http_generate_requests"].samples[0].value; v != 1 {
		t.Fatalf("serve_http_generate_requests = %d, want 1", v)
	}
	if v := families["serve_http_generate_inflight"].samples[0].value; v != 0 {
		t.Fatalf("serve_http_generate_inflight = %d, want 0 at rest", v)
	}

	for name, fam := range families {
		if fam.kind != "histogram" {
			continue
		}
		var prev int64 = -1
		var inf, count int64 = -1, -1
		var lastLE int64 = -1
		for _, s := range fam.samples {
			switch {
			case strings.HasSuffix(s.name, "_bucket") && s.le == "+Inf":
				inf = s.value
			case strings.HasSuffix(s.name, "_bucket"):
				le, err := strconv.ParseInt(s.le, 10, 64)
				if err != nil {
					t.Fatalf("%s: non-numeric le %q", name, s.le)
				}
				if le <= lastLE {
					t.Fatalf("%s: le bounds not ascending (%d after %d)", name, le, lastLE)
				}
				lastLE = le
				if s.value < prev {
					t.Fatalf("%s: bucket series not cumulative (%d after %d)", name, s.value, prev)
				}
				prev = s.value
			case strings.HasSuffix(s.name, "_count"):
				count = s.value
			}
		}
		if inf < 0 || count < 0 || inf != count {
			t.Fatalf("%s: +Inf bucket %d != count %d", name, inf, count)
		}
		if inf < prev {
			t.Fatalf("%s: +Inf bucket %d below last bound bucket %d", name, inf, prev)
		}
	}

	// The default (no Accept) stays the flat JSON snapshot, with the
	// same key the CI serve-smoke job greps.
	jresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	jraw, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	var snap map[string]int64
	if err := json.Unmarshal(jraw, &snap); err != nil {
		t.Fatalf("default /metrics is not the JSON snapshot: %v", err)
	}
	for _, key := range []string{"serve.generate.ok", "serve.http.generate.requests", "simd.lane_steps"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("JSON snapshot missing %s", key)
		}
	}
}

// TestUntracedServerKeepsNoSpans pins span retention on a server built
// without a trace output: after a run of generates its observability
// run keeps no finished span, while obs.spans still counts every span
// the requests and their engine runs finished.
func TestUntracedServerKeepsNoSpans(t *testing.T) {
	marchgen.ResetCache()
	s, ts := newTestServer(t, Config{})
	var observed atomic.Int64
	s.Run().Notify(func(obs.Event) { observed.Add(1) })
	const n = 20
	lists := []string{"SAF", "SAF,TF", "SAF,TF,ADF"}
	for i := 0; i < n; i++ {
		if resp, raw := post(t, ts.URL+"/v1/generate", GenerateRequest{Faults: lists[i%len(lists)]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate %d: %d %s", i, resp.StatusCode, raw)
		}
	}
	if evs := s.Run().Events(); len(evs) != 0 {
		t.Errorf("untraced server kept %d spans, want 0", len(evs))
	}
	snap := s.Run().Snapshot()
	if got, want := snap["obs.spans"], observed.Load(); got != want || got < n {
		t.Errorf("obs.spans = %d, want the %d spans finished (at least one per request, %d)", got, want, n)
	}
	if d := snap["obs.spans_dropped"]; d != 0 {
		t.Errorf("obs.spans_dropped = %d, want 0", d)
	}
}

// TestJobsSSEProgressPayload is the end-to-end progress contract: a
// complexity-6 generate job must stream at least one progress event
// whose snapshot carries the incumbent tour cost, the AP lower bound
// and a coverage fraction, with the bound admissible and the fractions
// sane.
func TestJobsSSEProgressPayload(t *testing.T) {
	marchgen.ResetCache()
	_, ts, _ := newStoreServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind: "generate", Generate: &GenerateRequest{Faults: "SAF,TF,ADF,CFin"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub JobStatusResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}

	var rich int
	var lastFraction float64
	for _, ev := range readStream(t, ts.URL+"/v1/jobs/"+sub.ID+"/events", "") {
		if ev.event != "progress" {
			continue
		}
		var parsed jobs.Event
		if err := json.Unmarshal([]byte(ev.data), &parsed); err != nil {
			t.Fatalf("progress payload: %v", err)
		}
		p := parsed.Progress
		if p == nil {
			continue
		}
		if p.Fraction < 0 || p.Fraction > 1 {
			t.Fatalf("fraction %v outside [0,1]", p.Fraction)
		}
		if p.Fraction < lastFraction {
			t.Fatalf("fraction regressed %v -> %v", lastFraction, p.Fraction)
		}
		lastFraction = p.Fraction
		if p.Incumbent > 0 && p.Bound > 0 && p.Bound > p.Incumbent {
			t.Fatalf("bound %d exceeds incumbent %d", p.Bound, p.Incumbent)
		}
		if p.Incumbent > 0 && p.Bound > 0 && p.CoverageFraction > 0 {
			rich++
		}
	}
	if rich == 0 {
		t.Fatal("no progress event carried incumbent, bound and coverage fraction")
	}

	// The job is done; the status body of a terminal job carries no
	// live progress snapshot.
	status := waitJobDone(t, ts.URL, sub.ID)
	if status.Progress != nil {
		t.Fatalf("terminal job still reports progress: %+v", status.Progress)
	}
}

// sseFrame is one parsed Server-Sent-Events frame.
type sseFrame struct {
	id    int // -1 when the frame carried no id
	event string
	data  string
}

// readStream consumes an SSE endpoint to EOF (the server closes after
// the summary frame), optionally presenting a Last-Event-ID header.
func readStream(t *testing.T, url, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	var frames []sseFrame
	cur := sseFrame{id: -1}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{id: -1}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestJobsSSEReconnect is the replay-coherence contract: a client that
// reconnects with Last-Event-ID sees exactly the events after that id —
// no duplicates, no gaps, and the terminal state event exactly once.
func TestJobsSSEReconnect(t *testing.T) {
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
	waitJobDone(t, ts.URL, sub.ID)

	url := ts.URL + "/v1/jobs/" + sub.ID + "/events"
	full := readStream(t, url, "")
	var ids []int
	for _, f := range full {
		if f.event == "summary" {
			continue
		}
		if f.id < 0 {
			t.Fatalf("frame %+v carries no id", f)
		}
		ids = append(ids, f.id)
	}
	if len(ids) < 3 {
		t.Fatalf("job produced only %d events, need >= 3 for a meaningful reconnect", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("replay ids not strictly ascending: %v", ids)
		}
	}
	if full[len(full)-1].event != "summary" {
		t.Fatalf("stream did not end with summary: %v", full[len(full)-1])
	}

	// Reconnect from the midpoint: the resumed stream must be exactly
	// the suffix, then one summary.
	cut := ids[len(ids)/2]
	resumed := readStream(t, url, fmt.Sprint(cut))
	var want []int
	for _, id := range ids {
		if id > cut {
			want = append(want, id)
		}
	}
	var got []int
	var summaries, terminal int
	for _, f := range resumed {
		if f.event == "summary" {
			summaries++
			continue
		}
		got = append(got, f.id)
		var ev jobs.Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "state" && (ev.State == jobs.StateDone || ev.State == jobs.StateFailed) {
			terminal++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("resumed ids %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed ids %v, want %v", got, want)
		}
	}
	if summaries != 1 {
		t.Fatalf("resumed stream carried %d summary frames, want 1", summaries)
	}
	if terminal != 1 {
		t.Fatalf("resumed stream carried %d terminal state events, want exactly 1", terminal)
	}

	// A reconnect past the end replays nothing but still summarises.
	tail := readStream(t, url, fmt.Sprint(ids[len(ids)-1]))
	for _, f := range tail {
		if f.event != "summary" {
			t.Fatalf("post-terminal reconnect replayed %+v", f)
		}
	}
}
