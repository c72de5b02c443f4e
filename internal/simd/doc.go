// Package simd is the bit-parallel fault-simulation kernel of the memory
// fault simulator — "simd" as in single-instruction multiple-lane over
// uint64 words, in pure stdlib Go. It accelerates the two hot loops of the
// generation engine (candidate validation and Coverage-Matrix
// construction), and through the single-input (*Block).Step it runs the
// assembler's coverage oracle, without changing a single result bit: the
// scalar engine in package sim remains the reference oracle and the
// differential tests prove byte-identical output.
//
// # Machine compilation
//
// A fault instance's two-cell Mealy machine (and the fault-free machine
// M0) is a pure function of (state, input). The state space is tiny —
// each cell holds 0, 1 or X, so there are 3×3 = 9 states — and the input
// alphabet has 7 symbols (w0i, w1i, w0j, w1j, ri, rj, T). Compile lowers
// the machine's closure-based δ and λ into dense 9×7 lookup tables, so a
// simulation step is an array index instead of a dynamic dispatch through
// deviation matching.
//
// # Lane packing
//
// A Block packs up to 16 fault instances × 4 initial memory contents into
// the 64 lanes of a machine word:
//
//	bit  63 .. 60  59 .. 56   ...   7 .. 4    3 .. 0
//	     ┌────────┬────────┬─────┬────────┬─────────┐
//	     │inst 15 │inst 14 │ ... │ inst 1 │ inst 0  │
//	     └────────┴────────┴─────┴────────┴─────────┘
//	      each nibble: lane v = initial content 00,01,10,11
//
// The lane state is kept one-hot across nine uint64 planes: plane s holds
// a set bit for every lane currently in state s (this is the two-plane
// ternary encoding generalised — a cell's 0/1 value and its X-ness are
// both captured by which plane the lane sits on). Applying one trace
// input is then a handful of AND/OR operations: for every source plane,
// the lanes move to their per-instance target plane through precomputed
// transfer masks, and read mismatches fall out as one mask word per trace
// position. One pass over the trace therefore simulates all 64
// (instance × initial content) combinations of the word at once; the ⇕
// resolution axis of the enumeration is the sequence of traces the caller
// feeds in.
//
// # Caching
//
// Compiling a block costs 16 × 9 × 7 closure evaluations. A run looks
// its fault list's blocks up once and evaluates every candidate test on
// them (sim.Evaluator), and compiled blocks are memoised process-wide in
// an internal/memo cache under the "simd/block" fingerprint namespace
// (the canonical fault.Key of the block's instances), so a later run
// over the same instances skips the build. A block is a pure
// function of its instance list — caching it can never change a result,
// only its latency, which is why this cache is consulted even by
// budgeted runs that bypass the result-level caches. Single-instance
// LUTs are compiled afresh each time: one costs about as much as a cache
// lookup would.
package simd
