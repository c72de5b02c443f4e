package sim

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"marchgen/fault"
	"marchgen/internal/obs"
	"marchgen/march"
)

// libraryAndRemovals returns every library test followed by each of its
// one-op removals: the removals include inconsistent and structurally
// invalid tests, so an evaluation's error path is exercised too.
func libraryAndRemovals() []*march.Test {
	var tests []*march.Test
	for _, name := range march.KnownNames() {
		kt, _ := march.Known(name)
		tests = append(tests, kt.Test)
		for e := range kt.Test.Elements {
			for o := range kt.Test.Elements[e].Ops {
				if cand := kt.Test.WithoutOp(e, o); cand != nil {
					tests = append(tests, cand)
				}
			}
		}
	}
	return tests
}

// sameCoverage reports whether two evaluations agree: the same error
// text, or no error and the same per-instance results.
func sameCoverage(got Coverage, gotErr error, want Coverage, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return fmt.Sprint(gotErr) == fmt.Sprint(wantErr)
	}
	if got.Test != want.Test || len(got.Results) != len(want.Results) {
		return false
	}
	for k := range want.Results {
		if !sameResult(got.Results[k], want.Results[k]) {
			return false
		}
	}
	return true
}

// TestEvaluatorShared shares one Evaluator between eight goroutines:
// every library test and each of its one-op removals must evaluate to
// the scalar engine's Coverage, or fail with the scalar engine's error,
// on two fault lists. Run under -race, it also pins that Evaluate
// writes nothing the goroutines share.
func TestEvaluatorShared(t *testing.T) {
	tests := libraryAndRemovals()
	ctx := context.Background()
	for _, faults := range []string{"SAF,TF,ADF,CFin,CFid", "SAF,TF,CFst"} {
		models, err := fault.ParseList(faults)
		if err != nil {
			t.Fatal(err)
		}
		instances := fault.Instances(models)
		type verdict struct {
			cov Coverage
			err error
		}
		want := make([]verdict, len(tests))
		failing := 0
		for k, mt := range tests {
			want[k].cov, want[k].err = EvaluateEngine(ctx, mt, instances, 1, Scalar)
			if want[k].err != nil {
				failing++
			}
		}
		if failing == 0 || failing == len(tests) {
			t.Fatalf("%s: %d of %d tests fail to evaluate; want some of each", faults, failing, len(tests))
		}
		ev, err := NewEvaluator(ctx, instances)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine starts at a different test, so different
				// tests are in flight at once.
				for i := range tests {
					k := (i + g*len(tests)/8) % len(tests)
					cov, err := ev.Evaluate(ctx, tests[k])
					if !sameCoverage(cov, err, want[k].cov, want[k].err) {
						t.Errorf("%s: goroutine %d: %s: evaluator gives %v (err %v), scalar %v (err %v)",
							faults, g, tests[k], cov.Missed(), err, want[k].cov.Missed(), want[k].err)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestEvaluatorEmptyList pins an evaluator of no instances to the
// scalar engine's result on an empty list: a Coverage holding the test
// and no rows, or the self-consistency error. It looks up no kernel
// blocks.
func TestEvaluatorEmptyList(t *testing.T) {
	run := obs.NewRun()
	ctx := obs.Into(context.Background(), run)
	ev, err := NewEvaluator(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range libraryAndRemovals() {
		want, wantErr := EvaluateEngine(context.Background(), mt, nil, 1, Scalar)
		got, err := ev.Evaluate(ctx, mt)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v (err %v), want %+v (err %v)", mt, got, err, want, wantErr)
		}
	}
	snap := run.Snapshot()
	for _, key := range []string{obs.CounterKernelBlockHits, obs.CounterKernelBlockCompiles, obs.CounterKernelTraces} {
		if _, ok := snap[key]; ok {
			t.Errorf("empty list recorded %s", key)
		}
	}
}

// TestEvaluatorCountsOnce pins where the kernel counters land: the block
// lookup's hits and compiles once, when the evaluator is built, and the
// sim.* evaluation counts once per evaluation.
func TestEvaluatorCountsOnce(t *testing.T) {
	models, err := fault.ParseList("SAF,TF,ADF,CFin,CFid")
	if err != nil {
		t.Fatal(err)
	}
	instances := fault.Instances(models)
	mt := mustKnown(t, "MarchC-")
	run := obs.NewRun()
	ctx := obs.Into(context.Background(), run)
	ev, err := NewEvaluator(ctx, instances)
	if err != nil {
		t.Fatal(err)
	}
	const evaluations = 5
	for i := 0; i < evaluations; i++ {
		if _, err := ev.Evaluate(ctx, mt); err != nil {
			t.Fatal(err)
		}
	}
	resolutions, err := Resolutions(mt)
	if err != nil {
		t.Fatal(err)
	}
	snap := run.Snapshot()
	blocks := int64((len(instances) + 15) / 16)
	if n := snap[obs.CounterKernelBlockHits] + snap[obs.CounterKernelBlockCompiles]; n != blocks {
		t.Errorf("%d block lookups, want %d (one per block, at construction)", n, blocks)
	}
	for key, want := range map[string]int64{
		"sim.evaluations":       evaluations,
		"sim.instances":         evaluations * int64(len(instances)),
		obs.CounterKernelTraces: evaluations * blocks * int64(len(resolutions)),
		obs.CounterKernelLanes:  evaluations * int64(len(instances)*4*len(resolutions)),
	} {
		if snap[key] != want {
			t.Errorf("%s = %d, want %d", key, snap[key], want)
		}
	}
}
