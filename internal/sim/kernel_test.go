package sim

import (
	"context"
	"reflect"
	"testing"

	"marchgen/fault"
	"marchgen/internal/obs"
	"marchgen/march"
)

// sameResult compares the observable fields of two InstanceResults.
// (Whole-struct DeepEqual is useless here: fault.Instance carries the
// machine's transition closures, and func values never compare equal.)
func sameResult(a, b InstanceResult) bool {
	return a.Instance.Name == b.Instance.Name &&
		a.Detected == b.Detected &&
		reflect.DeepEqual(a.DetectingOps, b.DetectingOps)
}

// fullLibrary returns every instance of every built-in fault model, in
// the registry's sorted model order — the complete differential-test
// universe.
func fullLibrary(t *testing.T) []fault.Instance {
	t.Helper()
	var instances []fault.Instance
	for _, name := range fault.ModelNames() {
		instances = append(instances, mustModel(t, name).Instances...)
	}
	if len(instances) == 0 {
		t.Fatal("empty fault library")
	}
	return instances
}

// TestKernelMatchesScalarFullLibrary is the kernel's primary differential
// test: for every known March test and the entire fault library, the
// bit-parallel kernel must return exactly the scalar oracle's
// InstanceResult set — same instances, same Detected verdicts, same
// DetectingOps.
func TestKernelMatchesScalarFullLibrary(t *testing.T) {
	instances := fullLibrary(t)
	ctx := context.Background()
	for _, name := range march.KnownNames() {
		mt := mustKnown(t, name)
		want, err := EvaluateEngine(ctx, mt, instances, 1, Scalar)
		if err != nil {
			t.Fatalf("%s: scalar: %v", name, err)
		}
		got, err := EvaluateEngine(ctx, mt, instances, 1, Kernel)
		if err != nil {
			t.Fatalf("%s: kernel: %v", name, err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("%s: kernel: %d results, scalar %d", name, len(got.Results), len(want.Results))
		}
		for k := range want.Results {
			if !sameResult(got.Results[k], want.Results[k]) {
				t.Errorf("%s: instance %s: kernel detected=%v ops=%v, scalar detected=%v ops=%v",
					name, want.Results[k].Instance.Name,
					got.Results[k].Detected, got.Results[k].DetectingOps,
					want.Results[k].Detected, want.Results[k].DetectingOps)
			}
		}
	}
}

// TestKernelRunsMatchScalarFullLibrary checks the finer-grained per-run
// mismatch attribution (the Coverage Matrix columns) across the whole
// library: RunsBatch on the kernel must equal the scalar oracle run for
// run — same inits, same resolutions, same MismatchOps. MarchG exercises
// Del elements, MATS multiple free ⇕ resolutions.
func TestKernelRunsMatchScalarFullLibrary(t *testing.T) {
	instances := fullLibrary(t)
	ctx := context.Background()
	for _, name := range []string{"MATS", "MATS+", "MarchC-", "MarchG"} {
		mt := mustKnown(t, name)
		want, err := RunsBatch(ctx, mt, instances, Scalar)
		if err != nil {
			t.Fatalf("%s: scalar: %v", name, err)
		}
		got, err := RunsBatch(ctx, mt, instances, Kernel)
		if err != nil {
			t.Fatalf("%s: kernel: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: kernel: %d instances, scalar %d", name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: instance %s: kernel runs differ from scalar\nkernel: %+v\nscalar: %+v",
					name, instances[i].Name, got[i], want[i])
			}
		}
	}
}

// TestEvaluateOnCallerGoroutine pins that a two-cell evaluation never
// fans out. On the 24 instances of SAF,TF,ADF,CFin,CFid (two kernel
// blocks), EvaluateWorkers (kernel) and EvaluateEngine (scalar) at
// workers 4 and RunsBatch on either engine record no pool fan-out, and
// their results equal the workers-1 evaluation and the scalar runs.
func TestEvaluateOnCallerGoroutine(t *testing.T) {
	models, err := fault.ParseList("SAF,TF,ADF,CFin,CFid")
	if err != nil {
		t.Fatal(err)
	}
	instances := fault.Instances(models)
	if len(instances) != 24 {
		t.Fatalf("%d instances, want 24 (two kernel blocks)", len(instances))
	}
	mt := mustKnown(t, "MarchC-")
	scalarRuns, err := RunsBatch(context.Background(), mt, instances, Scalar)
	if err != nil {
		t.Fatal(err)
	}
	evaluate := func(ctx context.Context, engine Engine, workers int) (Coverage, error) {
		if engine == Kernel {
			return EvaluateWorkers(ctx, mt, instances, workers)
		}
		return EvaluateEngine(ctx, mt, instances, workers, engine)
	}
	for _, engine := range []Engine{Kernel, Scalar} {
		run := obs.NewRun()
		ctx := obs.Into(context.Background(), run)
		want, err := evaluate(ctx, engine, 1)
		if err != nil {
			t.Fatalf("engine %d: workers 1: %v", engine, err)
		}
		got, err := evaluate(ctx, engine, 4)
		if err != nil {
			t.Fatalf("engine %d: workers 4: %v", engine, err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("engine %d: %d results at workers 4, %d at workers 1", engine, len(got.Results), len(want.Results))
		}
		for k := range want.Results {
			if !sameResult(got.Results[k], want.Results[k]) {
				t.Errorf("engine %d: instance %s differs between workers 4 and 1", engine, want.Results[k].Instance.Name)
			}
		}
		runs, err := RunsBatch(ctx, mt, instances, engine)
		if err != nil {
			t.Fatalf("engine %d: RunsBatch: %v", engine, err)
		}
		if !reflect.DeepEqual(runs, scalarRuns) {
			t.Errorf("engine %d: RunsBatch differs from the scalar runs", engine)
		}
		if n := run.Snapshot()["pool.fanouts"]; n != 0 {
			t.Errorf("engine %d: %d pool fan-outs, want 0", engine, n)
		}
	}
}

// TestRunsEngineSingleInstance pins the single-instance convenience
// wrapper to the batch result.
func TestRunsEngineSingleInstance(t *testing.T) {
	mt := mustKnown(t, "MarchC-")
	inst := mustModel(t, "CFid").Instances[0]
	kernel, err := Runs(mt, inst)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := RunsEngine(mt, inst, Scalar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kernel, scalar) {
		t.Errorf("Runs kernel/scalar mismatch:\nkernel: %+v\nscalar: %+v", kernel, scalar)
	}
}

// TestKernelPartialBlock covers instance counts that do not fill a whole
// 16-instance block, including the 1-instance and 17-instance edges.
func TestKernelPartialBlock(t *testing.T) {
	instances := fullLibrary(t)
	mt := mustKnown(t, "MarchC-")
	ctx := context.Background()
	for _, n := range []int{1, 2, 15, 16, 17, 33} {
		if n > len(instances) {
			t.Fatalf("library smaller than %d instances", n)
		}
		sub := instances[:n]
		want, err := EvaluateEngine(ctx, mt, sub, 1, Scalar)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateEngine(ctx, mt, sub, 1, Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("n=%d: %d results, want %d", n, len(got.Results), len(want.Results))
		}
		for k := range want.Results {
			if !sameResult(got.Results[k], want.Results[k]) {
				t.Errorf("n=%d: instance %s: kernel results differ from scalar",
					n, want.Results[k].Instance.Name)
			}
		}
	}
}
