package sim

import (
	"context"
	"fmt"
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
// form: the index-encoded input sequence and the fault-free expected
// output of every position.
type kernelTrace struct {
	inputs []uint8
	expect []march.Bit
}

// lowering is a March test in kernel form: one trace per ⇕ resolution,
// in Resolutions order, and the flattened-operation position map they
// share. An element visits its operations in the same order on both
// cells whatever its direction, so the map does not depend on the
// resolution.
type lowering struct {
	resolutions [][]march.Order
	traces      []kernelTrace
	positions   []int
	// numOps is the length of the test's flattened operation list.
	numOps int
}

// waitInput is the kernel index of the delay symbol T.
var waitInput = uint8(simd.InputIndex(fsm.Wait))

// lowerChecked validates t, enumerates its resolutions and lowers them
// with the self-consistency check: the errors, and their order, are
// SelfConsistent's.
func lowerChecked(t *march.Test) (lowering, error) {
	if err := t.Validate(); err != nil {
		return lowering{}, err
	}
	resolutions, err := Resolutions(t)
	if err != nil {
		return lowering{}, err
	}
	return lower(t, resolutions, true)
}

// lower writes every resolution of t straight into kernel form: per
// resolution one pass over the elements fills the index-encoded inputs
// (Trace + simd.EncodeTrace) and, stepping the compiled good machine
// from the fully unknown state, the expected outputs
// (simd.ExpectedOutputs). All traces share one allocation per field,
// sized from the elements. With check set, the first read, in
// resolution order and then trace order, whose fault-free output
// differs from the value it expects fails the lowering with
// SelfConsistent's error.
func lower(t *march.Test, resolutions [][]march.Order, check bool) (lowering, error) {
	n, numOps := 0, 0
	for _, e := range t.Elements {
		numOps += len(e.Ops)
		if e.Delay {
			n++
		} else {
			n += 2 * len(e.Ops)
		}
	}
	positions := make([]int, 0, n)
	opBase := 0
	for _, e := range t.Elements {
		if e.Delay {
			positions = append(positions, -1)
			continue
		}
		for pass := 0; pass < 2; pass++ {
			for o := range e.Ops {
				positions = append(positions, opBase+o)
			}
		}
		opBase += len(e.Ops)
	}
	inputs := make([]uint8, len(resolutions)*n)
	expect := make([]march.Bit, len(resolutions)*n)
	traces := make([]kernelTrace, len(resolutions))
	good := simd.Good()
	start := uint8(simd.StateIndex(fsm.Unknown))
	for r, res := range resolutions {
		in := inputs[r*n : (r+1)*n : (r+1)*n]
		ex := expect[r*n : (r+1)*n : (r+1)*n]
		traces[r] = kernelTrace{inputs: in, expect: ex}
		s, k := start, 0
		for ei, e := range t.Elements {
			if e.Delay {
				in[k], ex[k] = waitInput, good.Out[s][waitInput]
				s = good.Next[s][waitInput]
				k++
				continue
			}
			first, second := fsm.CellI, fsm.CellJ
			if res[ei] == march.Down {
				first, second = fsm.CellJ, fsm.CellI
			}
			for _, c := range [2]fsm.Cell{first, second} {
				for _, op := range e.Ops {
					x := uint8(simd.InputIndex(toInput(op, c)))
					out := good.Out[s][x]
					in[k], ex[k] = x, out
					if check && op.IsRead() && out != op.Data {
						return lowering{}, fmt.Errorf("sim: test %s is inconsistent: operation %d (%s) reads %s on a fault-free memory",
							t, positions[k], op, out)
					}
					s = good.Next[s][x]
					k++
				}
			}
		}
	}
	return lowering{resolutions: resolutions, traces: traces, positions: positions, numOps: numOps}, nil
}

// observeBlocks records one block lookup's cache traffic.
func observeBlocks(run *obs.Run, hits, compiles int) {
	if run == nil {
		return
	}
	run.Counter(obs.CounterKernelBlockHits).Add(int64(hits))
	run.Counter(obs.CounterKernelBlockCompiles).Add(int64(compiles))
}

// observeKernel records the kernel's per-evaluation counters.
func observeKernel(run *obs.Run, blocks, traces, instances int) {
	if run == nil {
		return
	}
	run.Counter(obs.CounterKernelTraces).Add(int64(blocks * traces))
	run.Counter(obs.CounterKernelLanes).Add(int64(instances * simd.LanesPerInstance * traces))
}

// evaluateKernel is the bit-parallel implementation behind
// Evaluator.Evaluate: per block of up to 16 instances, one pass over each
// resolution's trace yields the mismatch mask of all 64
// (instance × initial content) lanes at every read position, from which
// the guaranteed-detection verdict and the detecting-operation counters
// fall out with nibble reductions. Results are assembled in instance
// order and replicate the scalar engine bit for bit.
func evaluateKernel(ctx context.Context, t *march.Test, instances []fault.Instance, lw lowering, blocks []*simd.Block) (Coverage, error) {
	numOps, traces := lw.numOps, lw.traces
	mism := make([]uint64, len(lw.positions))
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
			b.RunTrace(tr.inputs, tr.expect, mism)
			var anyMismatch uint64
			for _, w := range mism {
				anyMismatch |= w
			}
			detected &= simd.NibbleAll(anyMismatch)
			for k, w := range mism {
				f := simd.NibbleAll(w)
				if f == 0 {
					continue
				}
				op := lw.positions[k]
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
func runsKernel(ctx context.Context, lw lowering, blocks []*simd.Block) ([][]Run, error) {
	numOps, traces := lw.numOps, lw.traces
	mism := make([]uint64, len(lw.positions))
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
			b.RunTrace(tr.inputs, tr.expect, mism)
			for l := range laneOps {
				laneOps[l] = laneOps[l][:0]
			}
			for k, w := range mism {
				if w == 0 {
					continue
				}
				op := lw.positions[k]
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
					run := Run{Init: inits[v], Resolution: lw.resolutions[ri]}
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
