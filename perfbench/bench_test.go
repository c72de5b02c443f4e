package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"marchgen/fault"
)

func TestFaultWalkDeterministicAndDistinct(t *testing.T) {
	draw := func(seed int64) []string {
		w := newFaultWalk(seed, faultmixMaxLen, faultmixMaxSelections)
		out := make([]string, 300)
		for i := range out {
			out[i] = w.next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different lists")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave the same lists")
	}
	seen := map[string]bool{}
	for _, l := range a {
		if seen[l] {
			t.Fatalf("list %q emitted twice", l)
		}
		seen[l] = true
		models, err := fault.ParseList(l)
		if err != nil {
			t.Fatalf("list %q does not parse: %v", l, err)
		}
		if len(models) > faultmixMaxLen {
			t.Fatalf("list %q has more than %d entries", l, faultmixMaxLen)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	hot := []string{"SAF", "SAF,TF"}
	build := func(seed int64) []request {
		return schedule(rand.New(rand.NewSource(seed)), coldStream(seed, hot), hot, 50, 2*time.Second)
	}
	a := build(3)
	if !reflect.DeepEqual(a, build(3)) {
		t.Fatal("the same seed gave different schedules")
	}
	if len(a) != 100 || a[1].at != 20*time.Millisecond {
		t.Fatalf("schedule has %d requests, second due at %v; want 100, 20ms", len(a), a[1].at)
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		want     float64
		gotPct   float64
		gotValue float64
	}{
		{1000, 99, 99, 990.01},     // exactly 10 samples beyond p99
		{999, 99, 95, 949.1},       // 9.99 beyond p99: fall back to p95
		{120, 90, 90, 108.1},       // 12 beyond p90
		{99, 90, 50, 50},           // 9.9 beyond p90: fall back to the median
		{19, 50, 100, 19},          // 9.5 beyond the median: only the maximum
		{100000, 99, 99, 99000.01}, // p99.9 lies above the asked percentile
	} {
		got := percentile(seq(tc.n), tc.want)
		if got.Pct != tc.gotPct || got.N != tc.n || abs(got.Value-tc.gotValue) > 1e-6 {
			t.Errorf("n=%d p%g: got p%g=%v (n=%d), want p%g=%v", tc.n, tc.want, got.Pct, got.Value, got.N, tc.gotPct, tc.gotValue)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{name: "replay", parent: -1, start: ms(0), end: ms(100)},
		{name: "gts", parent: 0, start: ms(10), end: ms(40)},
		{name: "sim", parent: 1, start: ms(20), end: ms(25)},
		{name: "gts", parent: 0, start: ms(50), end: ms(70)},
		// Overlapping children count once, and the part outside the
		// parent does not count.
		{name: "sim", parent: 3, start: ms(55), end: ms(65)},
		{name: "sim", parent: 3, start: ms(60), end: ms(80)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"replay": ms(100 - 30 - 20),
		"gts":    ms(30-5) + ms(20-15),
		"sim":    ms(5 + 10 + 20),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestRecorderParents(t *testing.T) {
	r := newRecorder()
	root := r.begin("replay", "a")
	r.do("fault", "a", func() {})
	r.do("tpg", "a", func() { r.do("inner", "a", func() {}) })
	r.end(root)
	parents := []int{-1, 0, 0, 2}
	for i, s := range r.spans {
		if s.parent != parents[i] || s.end < s.start {
			t.Fatalf("span %d (%s): parent %d, interval %v..%v", i, s.name, s.parent, s.start, s.end)
		}
	}
}

func TestRunPhaseOpenLoop(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprint(w, `{"test":"{ ⇕(w0,r0) }","elapsed_us":5,"from_cache":true}`)
	}))
	defer srv.Close()
	hot := []string{"SAF"}
	sched := schedule(rand.New(rand.NewSource(1)), coldStream(1, hot), hot, 200, time.Second/2)
	out := runPhase(srv.Client(), srv.URL, sched, 2)
	if len(out) != len(sched) || served.Load() != int64(len(sched)) {
		t.Fatalf("%d outcomes, %d served, want %d", len(out), served.Load(), len(sched))
	}
	for i, o := range out {
		if o.err != nil || o.status != http.StatusOK || o.test != "{ ⇕(w0,r0) }" || o.elapsedUS != 5 {
			t.Fatalf("request %d: %+v", i, o)
		}
		if o.sent.Before(o.due) || o.done.Before(o.sent) {
			t.Fatalf("request %d sent %v before due %v or done before sent", i, o.sent, o.due)
		}
		if i > 0 && o.due.Sub(out[i-1].due) != 5*time.Millisecond {
			t.Fatalf("request %d due %v after the previous, want 5ms", i, o.due.Sub(out[i-1].due))
		}
	}
}
