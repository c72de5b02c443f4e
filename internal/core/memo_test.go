package core

import (
	"testing"

	"marchgen/internal/memo"
	"marchgen/internal/obs"
)

// memoRun generates list at one worker over cache, returning the result
// and the run's metrics snapshot.
func memoRun(t *testing.T, list string, cache *memo.Cache, selectionLimit int) (*Result, map[string]int64) {
	t.Helper()
	run := obs.NewRun()
	opts := DefaultOptions()
	opts.Workers = 1
	opts.SelectionLimit = selectionLimit
	opts.Cache = cache
	opts.Obs = run
	res := generate(t, list, opts)
	return res, run.Snapshot()
}

func solverTotal(m map[string]int64) int64 {
	return m["atsp.heldkarp.states"] + m["atsp.bb.expanded"] + m["atsp.enum.nodes"]
}

// TestMemoPriming proves the in-memory memo answers repeated work within
// one process: a repeat call is served whole from the result entry, and
// a call whose result key differs but whose selections solve the same
// weight matrices skips every exact solve through the tour fragments.
// The generated test is byte-identical in every call.
func TestMemoPriming(t *testing.T) {
	const list = "SAF,TF,ADF"
	cache := memo.New(0)
	first, firstM := memoRun(t, list, cache, 64)
	if first.FromCache {
		t.Fatal("first call claims a cache hit on an empty cache")
	}

	// Same problem: the result entry short-circuits the pipeline.
	second, secondM := memoRun(t, list, cache, 64)
	if !second.FromCache || secondM["memo.result_hits"] != 1 {
		t.Fatalf("repeat call not served from the result entry (FromCache=%v, metrics %v)",
			second.FromCache, secondM)
	}
	if second.Test.String() != first.Test.String() {
		t.Fatalf("repeat output %q != original %q", second.Test, first.Test)
	}

	// A different selection limit changes the result key but not the
	// list's selections: the sweep re-runs, and every exact solve is
	// answered by a tour fragment, so solver nodes collapse.
	third, thirdM := memoRun(t, list, cache, 65)
	if third.FromCache || thirdM["memo.tour_hits"] == 0 {
		t.Fatalf("third call: FromCache=%v tour_hits=%d, want a sweep with tour hits",
			third.FromCache, thirdM["memo.tour_hits"])
	}
	if third.Test.String() != first.Test.String() {
		t.Fatalf("tour-primed output %q != original %q", third.Test, first.Test)
	}
	t.Logf("tour hits %d; solver nodes %d primed, %d cold", thirdM["memo.tour_hits"], solverTotal(thirdM), solverTotal(firstM))
	if got, base := solverTotal(thirdM), solverTotal(firstM); 2*got > base {
		t.Errorf("tour-primed call spent %d solver nodes, first spent %d — expected at least halved", got, base)
	}
}
