package core

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"marchgen/internal/memo"
	"marchgen/internal/obs"
)

// mapTier is an in-memory memo.DiskTier standing in for the durable
// store: the bytes it holds survive "restarts" (fresh memo.Cache
// instances attached over the same map) exactly like a real disk tier.
type mapTier struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapTier() *mapTier { return &mapTier{m: map[string][]byte{}} }

func (t *mapTier) Get(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.m[key]
	return b, ok
}

func (t *mapTier) Put(key string, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[key] = append([]byte(nil), data...)
}

// without clones the tier keeping only entries whose persisted kind is
// outside the given set — simulating partial durability (some kinds
// evicted or never persisted) across a restart.
func (t *mapTier) without(kinds ...string) *mapTier {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := newMapTier()
outer:
	for k, v := range t.m {
		for _, kind := range kinds {
			if strings.Contains(string(v), `"kind":"`+kind+`"`) {
				continue outer
			}
		}
		out.m[k] = append([]byte(nil), v...)
	}
	return out
}

// primedRun generates list over a fresh cache attached to tier, returning
// the result and the run's metrics snapshot — one simulated process
// lifetime.
func primedRun(t *testing.T, list string, tier memo.DiskTier) (*Result, map[string]int64) {
	t.Helper()
	cache := memo.New(0)
	cache.AttachDisk(tier, Codec())
	run := obs.NewRun()
	opts := DefaultOptions()
	opts.Cache = cache
	opts.Obs = run
	res := generate(t, list, opts)
	return res, run.Snapshot()
}

func solverTotal(m map[string]int64) int64 {
	return m["atsp.heldkarp.states"] + m["atsp.bb.expanded"] + m["atsp.enum.nodes"]
}

// TestCrossRestartPriming proves the durable chain end to end: a second
// process lifetime over the same tier bytes skips re-solves (whole-result
// and per-matrix tour hits), with the generated test byte-identical in
// every lifetime.
func TestCrossRestartPriming(t *testing.T) {
	const list = "SAF,TF,ADF"
	tier := newMapTier()
	first, firstM := primedRun(t, list, tier)
	if first.FromCache {
		t.Fatal("first lifetime claims a cache hit on an empty tier")
	}

	// Full restart: the persisted result short-circuits the pipeline.
	second, secondM := primedRun(t, list, tier)
	if !second.FromCache || secondM["memo.result_hits"] != 1 {
		t.Fatalf("second lifetime not served from the tier (FromCache=%v, metrics %v)",
			second.FromCache, secondM)
	}
	if second.Test.String() != first.Test.String() {
		t.Fatalf("restart output %q != original %q", second.Test, first.Test)
	}

	// Result entries gone (evicted, or the run was budgeted): the sweep
	// re-runs, but every exact solve is answered by a persisted tour
	// fragment — node counts collapse.
	third, thirdM := primedRun(t, list, tier.without("result"))
	if third.FromCache || thirdM["memo.tour_hits"] == 0 {
		t.Fatalf("third lifetime: FromCache=%v tour_hits=%d, want sweep with tour hits",
			third.FromCache, thirdM["memo.tour_hits"])
	}
	if third.Test.String() != first.Test.String() {
		t.Fatalf("tour-primed output %q != original %q", third.Test, first.Test)
	}
	if got, base := solverTotal(thirdM), solverTotal(firstM); 2*got > base {
		t.Errorf("tour-primed lifetime spent %d solver nodes, first spent %d — expected at least halved", got, base)
	}
}

// TestCrossRestartRejectsBadFragments locks the safety side: corrupted
// bytes, version-skewed envelopes, torn writes and well-formed tour
// fragments that do not answer their instance — a path through a node the
// TPG does not have, or a cost its paths do not add up to — are all
// treated as clean misses. The run completes with the byte-identical
// result, never trusts a bad fragment, and overwrites every bad tour entry
// with the one it re-solved.
func TestCrossRestartRejectsBadFragments(t *testing.T) {
	const list = "SAF,TF,ADF"
	tier := newMapTier()
	first, _ := primedRun(t, list, tier)

	badTours := []struct {
		name string
		tour func(good []byte) []byte
	}{
		// Bit rot: garbage bytes under a valid key.
		{"garbage", func([]byte) []byte { return []byte("\x00\xffnot json") }},
		// Node 99 indexes past every reduced TPG of the list.
		{"out-of-range", func([]byte) []byte {
			return []byte(`{"v":1,"kind":"tour","data":{"paths":[[0,1,99]],"cost":3}}`)
		}},
		// Valid permutations whose visit cost is not the stated one.
		{"cost-mismatch", func(good []byte) []byte {
			var env persistEnvelope
			var tour persistTour
			if json.Unmarshal(good, &env) != nil || json.Unmarshal(env.Data, &tour) != nil {
				t.Fatalf("undecodable tier tour entry %q", good)
			}
			tour.Cost++
			env.Data, _ = json.Marshal(tour)
			out, _ := json.Marshal(env)
			return out
		}},
	}
	for _, bad := range badTours {
		corrupt := newMapTier()
		var tourKeys []string
		tier.mu.Lock()
		for k, v := range tier.m {
			switch {
			case strings.Contains(string(v), `"kind":"tour"`):
				tourKeys = append(tourKeys, k)
				corrupt.m[k] = bad.tour(v)
			case strings.Contains(string(v), `"kind":"verdict"`):
				// Version skew: a future layout must not parse as today's.
				corrupt.m[k] = []byte(strings.Replace(string(v), `"v":1`, `"v":99`, 1))
			case strings.Contains(string(v), `"kind":"result"`):
				// Torn write: truncated JSON.
				corrupt.m[k] = v[:len(v)/2]
			default:
				t.Fatalf("unexpected tier entry %q", v)
			}
		}
		tier.mu.Unlock()
		if len(tourKeys) == 0 {
			t.Fatal("first lifetime persisted no tour fragments")
		}

		res, m := primedRun(t, list, corrupt)
		if res.FromCache {
			t.Fatalf("%s: corrupted result entry served from cache", bad.name)
		}
		if m["memo.tour_hits"] != 0 || m["memo.result_hits"] != 0 {
			t.Fatalf("%s: corrupted fragments produced hits (metrics %v)", bad.name, m)
		}
		if res.Test.String() != first.Test.String() {
			t.Fatalf("%s: output over corrupted tier %q != original %q", bad.name, res.Test, first.Test)
		}
		for _, k := range tourKeys {
			if got, want := corrupt.m[k], tier.m[k]; string(got) != string(want) {
				t.Errorf("%s: tour entry %s not overwritten by the re-solve:\n got %s\nwant %s", bad.name, k, got, want)
			}
		}
	}
}

// TestWarmPathValidation pins the path-shape gate a cached tour fragment
// passes before its paths are mapped back onto patterns.
func TestWarmPathValidation(t *testing.T) {
	cases := []struct {
		p  []int
		n  int
		ok bool
	}{
		{[]int{0, 1, 2}, 3, true},
		{[]int{2, 0, 1}, 3, true},
		{[]int{0, 1}, 3, false},       // short
		{[]int{0, 1, 2, 3}, 3, false}, // long
		{[]int{0, 1, 1}, 3, false},    // duplicate
		{[]int{0, 1, 3}, 3, false},    // out of range
		{[]int{-1, 1, 2}, 3, false},   // negative
		{nil, 0, true},                // empty instance, empty path
	}
	for _, c := range cases {
		if got := validFragmentPath(c.p, c.n); got != c.ok {
			t.Errorf("validFragmentPath(%v, %d) = %v, want %v", c.p, c.n, got, c.ok)
		}
	}
}
