package simd

import (
	"fmt"

	"marchgen/fault"
	"marchgen/internal/memo"
	"marchgen/march"
)

// nibbleLSB has the least-significant bit of every 4-bit lane nibble set.
const nibbleLSB = 0x1111111111111111

// target is one edge bundle of a block's transfer function: under the
// owning (input, source state), the lanes in mask move to state to.
type target struct {
	to   uint8
	mask uint64
}

// Block is a batch of up to BlockInstances fault instances compiled into
// word-level transfer and mismatch masks, ready for bit-parallel
// evaluation. Blocks are immutable once built and safe for concurrent
// use.
type Block struct {
	n     int
	lanes uint64 // mask of the active lanes (low 4·n bits)
	// trans[in][s] lists the distinct target states of the lanes
	// currently in state s under input in, with the lane set moving to
	// each one. Most instances behave like the good machine at most
	// points, so the list is short (usually one or two entries).
	trans [NumInputs][NumStates][]target
	// mism[in][s][e] masks the lanes whose read output in state s under
	// (read) input in is a concrete value different from the expected
	// bit e — a guaranteed-observable mismatch.
	mism [NumInputs][NumStates][2]uint64
}

// NewBlock compiles up to BlockInstances machines into one block. The
// lane nibble of machine i is bits 4i..4i+3.
func NewBlock(machines []*Compiled) (*Block, error) {
	if len(machines) == 0 || len(machines) > BlockInstances {
		return nil, fmt.Errorf("simd: block needs 1..%d machines, got %d", BlockInstances, len(machines))
	}
	b := &Block{n: len(machines)}
	b.lanes = ^uint64(0) >> (64 - LanesPerInstance*len(machines))
	for in := 0; in < NumInputs; in++ {
		for s := 0; s < NumStates; s++ {
			for i, m := range machines {
				laneMask := uint64(0xF) << (LanesPerInstance * i)
				to := m.Next[s][in]
				found := false
				for k := range b.trans[in][s] {
					if b.trans[in][s][k].to == to {
						b.trans[in][s][k].mask |= laneMask
						found = true
						break
					}
				}
				if !found {
					b.trans[in][s] = append(b.trans[in][s], target{to: to, mask: laneMask})
				}
				if out := m.Out[s][in]; out.Known() {
					// A known output mismatches the opposite expected bit.
					b.mism[in][s][1-int(out)] |= laneMask
				}
			}
		}
	}
	return b, nil
}

// Instances returns the number of fault instances packed in the block.
func (b *Block) Instances() int { return b.n }

// Lanes returns the mask of the block's active lanes.
func (b *Block) Lanes() uint64 { return b.lanes }

// InitPlanes returns the one-hot state planes of the start of a run:
// lane 4i+v of instance i begins in the v-th concrete initial content
// (00, 01, 10, 11 — fsm.ConcreteStates order).
func (b *Block) InitPlanes() [NumStates]uint64 {
	var planes [NumStates]uint64
	// StateIndex(00)=0, (01)=1, (10)=3, (11)=4.
	planes[0] = (nibbleLSB << 0) & b.lanes
	planes[1] = (nibbleLSB << 1) & b.lanes
	planes[3] = (nibbleLSB << 2) & b.lanes
	planes[4] = (nibbleLSB << 3) & b.lanes
	return planes
}

// Step advances the lanes held in planes by one index-encoded input and
// returns the lanes whose machine returns a concrete value different
// from the fault-free expectation expect. Non-read inputs and an unknown
// expectation yield zero. The mismatch is computed before the input's own
// state transition, like the scalar engine's Mealy semantics.
func (b *Block) Step(planes *[NumStates]uint64, in uint8, expect march.Bit) uint64 {
	var mm uint64
	if expect.Known() {
		ms := &b.mism[in]
		for s := 0; s < NumStates; s++ {
			if w := planes[s]; w != 0 {
				mm |= w & ms[s][expect]
			}
		}
	}
	ts := &b.trans[in]
	var next [NumStates]uint64
	for s := 0; s < NumStates; s++ {
		w := planes[s]
		if w == 0 {
			continue
		}
		for _, t := range ts[s] {
			next[t.to] |= w & t.mask
		}
	}
	*planes = next
	return mm
}

// RunTrace evaluates the whole block over one input trace and writes the
// per-position mismatch mask into mism (which must have len(inputs)):
// bit l of mism[k] is set when lane l's machine, started from lane l's
// initial content, returns a concrete value different from the
// fault-free expectation expect[k] at position k (see Step).
func (b *Block) RunTrace(inputs []uint8, expect []march.Bit, mism []uint64) {
	// One telemetry add per trace, not per word: the whole trace's
	// lane-step count lands in the process-wide counters up front.
	laneSteps.Add(uint64(len(inputs)) * uint64(b.n) * LanesPerInstance)
	traceRuns.Add(1)
	planes := b.InitPlanes()
	for k, in := range inputs {
		mism[k] = b.Step(&planes, in, expect[k])
	}
}

// NibbleAll reduces a lane word instance-wise: the result has the low
// bit of nibble i set exactly when all four lanes of instance i are set
// in w. This is the "mismatch for every initial memory content"
// reduction of the guaranteed-detection semantics.
func NibbleAll(w uint64) uint64 {
	return w & (w >> 1) & (w >> 2) & (w >> 3) & nibbleLSB
}

// blockCache memoises compiled blocks across evaluations: the generation
// engine re-validates hundreds of candidate tests against the same fault
// list, and the block masks depend only on the instances. Keys are
// content-addressed (fault.Key), so two lists posing the same instances
// share the compilation regardless of which run posed them.
var blockCache = memo.New(1024)

// blockKey fingerprints one block's instance chunk for the cache.
func blockKey(chunk []fault.Instance) string {
	return memo.NewFingerprinter("simd/block").Str(fault.Key(chunk)).Key()
}

// CompiledBlocks partitions a fault-instance list into blocks of
// BlockInstances (in order — block b holds instances 16b..16b+15) and
// compiles each one, reusing the process-wide block cache. It returns
// the blocks plus the cache hit and compile counts of this call, so
// callers can surface the traffic in their metrics.
func CompiledBlocks(instances []fault.Instance) (blocks []*Block, hits, compiles int, err error) {
	for lo := 0; lo < len(instances); lo += BlockInstances {
		hi := lo + BlockInstances
		if hi > len(instances) {
			hi = len(instances)
		}
		chunk := instances[lo:hi]
		key := blockKey(chunk)
		if v, ok := blockCache.Get(key); ok {
			blocks = append(blocks, v.(*Block))
			hits++
			continue
		}
		// Single-instance LUTs are not cached: a compile fills 63 table
		// cells, which costs about as much as a content-addressed lookup.
		machines := make([]*Compiled, len(chunk))
		for k := range chunk {
			machines[k] = Compile(chunk[k].Machine)
		}
		b, err := NewBlock(machines)
		if err != nil {
			return nil, hits, compiles, err
		}
		blockCache.Put(key, b)
		blocks = append(blocks, b)
		compiles++
	}
	return blocks, hits, compiles, nil
}
