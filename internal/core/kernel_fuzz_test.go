package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"marchgen/fault"
	"marchgen/internal/sim"
	"marchgen/march"
)

// FuzzKernelEquivalence fuzzes the bit-parallel kernel against the scalar
// oracle on randomised user-defined fault models: any (random fault list,
// known March test) pair must produce identical detection verdicts,
// identical detecting-op attributions and identical per-run mismatch
// attributions on both engines. This extends the curated differential
// tests in internal/sim to machines outside the built-in library.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(998877), uint8(3))
	f.Add(int64(443322), uint8(7))
	f.Add(int64(-42), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, testPick uint8) {
		rng := rand.New(rand.NewSource(seed))
		var instances []fault.Instance
		for k := 0; k <= rng.Intn(3); k++ {
			dev := randomDeviation(rng)
			inst, err := fault.FromDeviations("FUZZ", devName(int(seed&0xFF), k, dev), false, dev)
			if err != nil {
				continue // unobservable or masked: correctly rejected
			}
			instances = append(instances, inst)
		}
		if len(instances) == 0 {
			t.Skip("no observable instances from this seed")
		}
		names := march.KnownNames()
		mt, ok := march.Known(names[int(testPick)%len(names)])
		if !ok {
			t.Fatalf("known test %q vanished", names[int(testPick)%len(names)])
		}
		ctx := context.Background()
		wantCov, err := sim.EvaluateEngine(ctx, mt.Test, instances, 1, sim.Scalar)
		if err != nil {
			t.Fatal(err)
		}
		gotCov, err := sim.EvaluateEngine(ctx, mt.Test, instances, 1, sim.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotCov.Results) != len(wantCov.Results) {
			t.Fatalf("result count: kernel %d, scalar %d", len(gotCov.Results), len(wantCov.Results))
		}
		for k := range wantCov.Results {
			g, w := gotCov.Results[k], wantCov.Results[k]
			if g.Detected != w.Detected || !reflect.DeepEqual(g.DetectingOps, w.DetectingOps) {
				t.Errorf("%s vs %s: kernel detected=%v ops=%v, scalar detected=%v ops=%v",
					names[int(testPick)%len(names)], w.Instance.Name, g.Detected, g.DetectingOps, w.Detected, w.DetectingOps)
			}
		}
		wantRuns, err := sim.RunsBatch(ctx, mt.Test, instances, sim.Scalar)
		if err != nil {
			t.Fatal(err)
		}
		gotRuns, err := sim.RunsBatch(ctx, mt.Test, instances, sim.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRuns, wantRuns) {
			t.Errorf("%s: kernel runs differ from scalar:\nkernel: %+v\nscalar: %+v",
				names[int(testPick)%len(names)], gotRuns, wantRuns)
		}
	})
}
