package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// deferredTrace remembers a writer to dump the full, seq-ordered trace
// to when the run finishes (Flush).
type deferredTrace struct {
	mu sync.Mutex
	w  io.Writer
}

// DeferTrace arranges for the full trace to be written to w, in
// sequence order, when Flush is called. The output is deterministic in
// line order: sequence numbers, not span end times, decide it.
func (r *Run) DeferTrace(w io.Writer) {
	if r == nil || w == nil {
		return
	}
	r.deferred.mu.Lock()
	r.deferred.w = w
	r.deferred.mu.Unlock()
}

// Flush writes the complete seq-ordered JSONL dump to the deferred
// trace writer, if any. Returns the write error, for callers that care
// (the CLIs report it; the library path ignores it).
func (r *Run) Flush() error {
	if r == nil {
		return nil
	}
	r.deferred.mu.Lock()
	w := r.deferred.w
	r.deferred.w = nil
	r.deferred.mu.Unlock()
	if w == nil {
		return nil
	}
	return WriteJSONL(w, r.Events())
}

// WriteJSONL encodes events one JSON object per line. Map keys inside
// attrs marshal in sorted order (encoding/json), so output bytes depend
// only on the events.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}
