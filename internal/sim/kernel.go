package sim

import (
	"context"
	"math/bits"
	"sort"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
	"marchgen/internal/simd"
	"marchgen/march"
)

// Engine selects the simulation implementation backing an evaluation:
// the bit-parallel LUT kernel (the default) or the scalar reference
// engine. Both produce byte-identical results — the differential tests
// prove it — so the choice only affects speed.
type Engine int

// The two engines. Kernel packs (instance × initial content) lanes into
// machine words and steps them with compiled-LUT transfer masks; Scalar
// is the original closure-dispatch engine, kept as the reference oracle.
const (
	Kernel Engine = iota
	Scalar
)

// kernelTrace is one ⇕ resolution of a March test lowered to kernel
// form: the index-encoded input sequence, the fault-free expected output
// of every position, and the flattened-operation position map.
type kernelTrace struct {
	inputs    []uint8
	expect    []march.Bit
	positions []int
}

// kernelTraces lowers every resolution of the test.
func kernelTraces(t *march.Test, resolutions [][]march.Order) []kernelTrace {
	traces := make([]kernelTrace, len(resolutions))
	for k, res := range resolutions {
		trace, positions := Trace(t, res)
		inputs := simd.EncodeTrace(trace)
		traces[k] = kernelTrace{
			inputs:    inputs,
			expect:    simd.ExpectedOutputs(inputs),
			positions: positions,
		}
	}
	return traces
}

// observeKernel records the kernel's per-evaluation counters.
func observeKernel(run *obs.Run, blocks []*simd.Block, hits, compiles, traces, instances int) {
	if run == nil {
		return
	}
	run.Counter(obs.CounterKernelBlockHits).Add(int64(hits))
	run.Counter(obs.CounterKernelBlockCompiles).Add(int64(compiles))
	run.Counter(obs.CounterKernelTraces).Add(int64(len(blocks) * traces))
	run.Counter(obs.CounterKernelLanes).Add(int64(instances * simd.LanesPerInstance * traces))
}

// maxTraceLen returns the longest lowered trace, sizing the mismatch
// scratch buffer.
func maxTraceLen(traces []kernelTrace) int {
	n := 0
	for _, tr := range traces {
		if len(tr.inputs) > n {
			n = len(tr.inputs)
		}
	}
	return n
}

// evaluateKernel is the bit-parallel implementation behind
// EvaluateEngine: per block of up to 16 instances, one pass over each
// resolution's trace yields the mismatch mask of all 64
// (instance × initial content) lanes at every read position, from which
// the guaranteed-detection verdict and the detecting-operation counters
// fall out with nibble reductions. Results are assembled in instance
// order and replicate the scalar engine bit for bit.
func evaluateKernel(ctx context.Context, t *march.Test, instances []fault.Instance, traces []kernelTrace, blocks []*simd.Block) (Coverage, error) {
	numOps := len(t.Ops())
	mism := make([]uint64, maxTraceLen(traces))
	// counts[i·numOps+op] is the number of (resolution, trace position)
	// pairs at which instance i's mismatch is guaranteed for every
	// initial content — the scalar engine's detecting map as a flat
	// counter row, reused block to block.
	counts := make([]int, min(len(instances), simd.BlockInstances)*numOps)
	cov := Coverage{Test: t, Results: make([]InstanceResult, len(instances))}
	for bi, b := range blocks {
		if err := budget.CtxErr(ctx); err != nil {
			return Coverage{}, err
		}
		lo, n := bi*simd.BlockInstances, b.Instances()
		clear(counts)
		// detected keeps the low bit of instance i's nibble while every
		// trace so far has a guaranteed mismatch for it.
		detected := ^uint64(0)
		for _, tr := range traces {
			mm := mism[:len(tr.inputs)]
			b.RunTrace(tr.inputs, tr.expect, mm)
			var anyMismatch uint64
			for _, w := range mm {
				anyMismatch |= w
			}
			detected &= simd.NibbleAll(anyMismatch)
			for k, w := range mm {
				f := simd.NibbleAll(w)
				if f == 0 {
					continue
				}
				op := tr.positions[k]
				if op < 0 {
					continue
				}
				for f != 0 {
					i := bits.TrailingZeros64(f) >> 2
					f &= f - 1
					counts[i*numOps+op]++
				}
			}
		}
		for i := 0; i < n; i++ {
			r := InstanceResult{
				Instance: instances[lo+i],
				Detected: detected&(1<<uint(simd.LanesPerInstance*i)) != 0,
			}
			for op, cnt := range counts[i*numOps : (i+1)*numOps] {
				if cnt == len(traces) {
					r.DetectingOps = append(r.DetectingOps, op)
				}
			}
			cov.Results[lo+i] = r
		}
	}
	return cov, nil
}

// runsKernel is the bit-parallel implementation behind RunsBatch: the
// per-run mismatch attribution of every (instance, initial content,
// ⇕ resolution) triple, computed one block-trace pass at a time.
func runsKernel(ctx context.Context, t *march.Test, resolutions [][]march.Order, traces []kernelTrace, blocks []*simd.Block) ([][]Run, error) {
	numOps := len(t.Ops())
	mism := make([]uint64, maxTraceLen(traces))
	laneOps := make([][]int, simd.LanesPerInstance*simd.BlockInstances)
	inits := fsm.ConcreteStates()
	var results [][]Run
	for _, b := range blocks {
		if err := budget.CtxErr(ctx); err != nil {
			return nil, err
		}
		n := b.Instances()
		out := make([][]Run, n)
		for i := range out {
			out[i] = make([]Run, 0, len(traces)*simd.LanesPerInstance)
		}
		for ri, tr := range traces {
			mm := mism[:len(tr.inputs)]
			b.RunTrace(tr.inputs, tr.expect, mm)
			for l := range laneOps {
				laneOps[l] = laneOps[l][:0]
			}
			for k, w := range mm {
				if w == 0 {
					continue
				}
				op := tr.positions[k]
				if op < 0 {
					continue
				}
				for w != 0 {
					l := bits.TrailingZeros64(w)
					w &= w - 1
					laneOps[l] = append(laneOps[l], op)
				}
			}
			for i := 0; i < n; i++ {
				for v := 0; v < simd.LanesPerInstance; v++ {
					run := Run{Init: inits[v], Resolution: resolutions[ri]}
					if ops := laneOps[simd.LanesPerInstance*i+v]; len(ops) > 0 {
						run.MismatchOps = dedupeSortedOps(ops, numOps)
					}
					out[i] = append(out[i], run)
				}
			}
		}
		results = append(results, out...)
	}
	return results, nil
}

// dedupeSortedOps sorts a small op-index list and drops duplicates into
// a fresh slice (a trace visits every operation twice — once per model
// cell — so duplicates are the common case). numOps documents the index
// domain; the list length is what drives the cost.
func dedupeSortedOps(ops []int, numOps int) []int {
	_ = numOps
	sort.Ints(ops)
	out := make([]int, 0, len(ops))
	for k, op := range ops {
		if k > 0 && op == ops[k-1] {
			continue
		}
		out = append(out, op)
	}
	return out
}
