package simd

import "sync/atomic"

// Process-wide kernel telemetry. The block cache is already
// process-wide (a block compiled by any run serves every run), so the
// matching throughput counters live at the same scope: one atomic add
// per RunTrace call — never per word — keeps them off the hot loop.
// The serving layer exposes them on /metrics so capacity planning can
// compare kernel throughput across processes.
var (
	// laneSteps counts simulated lane-steps: one unit is one
	// (instance × initial content) lane advanced one trace position.
	laneSteps atomic.Uint64
	// traceRuns counts RunTrace invocations (one block × one resolution).
	traceRuns atomic.Uint64
)

// Telemetry is a snapshot of the process-wide kernel throughput
// counters.
type Telemetry struct {
	// LaneSteps is the cumulative simulated lane-step count.
	LaneSteps uint64
	// TraceRuns is the cumulative RunTrace call count.
	TraceRuns uint64
}

// ReadTelemetry returns the current process-wide kernel throughput
// counters. Safe for concurrent use.
func ReadTelemetry() Telemetry {
	return Telemetry{
		LaneSteps: laneSteps.Load(),
		TraceRuns: traceRuns.Load(),
	}
}
