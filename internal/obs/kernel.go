package obs

// Canonical metric names of the bit-parallel simulation kernel
// (internal/simd and the kernel path of internal/sim). They live here so
// the emitting sites, the benchmark runner's kernel-usage guard and the
// trace tooling agree on one spelling.
const (
	// CounterKernelTraces counts trace evaluations executed on the
	// bit-parallel kernel (one per block × ⇕ resolution).
	CounterKernelTraces = "sim.kernel_traces"
	// CounterKernelLanes counts simulation lanes evaluated by the kernel
	// (instances × initial contents, summed over traces).
	CounterKernelLanes = "sim.kernel_lanes"
	// CounterKernelBlockHits counts compiled-LUT blocks served from the
	// process-wide block cache.
	CounterKernelBlockHits = "simd.block_cache_hits"
	// CounterKernelBlockCompiles counts compiled-LUT blocks built fresh.
	CounterKernelBlockCompiles = "simd.block_compiles"
)
