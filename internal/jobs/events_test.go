package jobs

import (
	"sync"
	"testing"
	"time"

	"marchgen/internal/obs"
)

// TestBusRateLimitMapPruned pins the lifecycle of the per-span-name
// rate-limit map: it grows while the job streams, and drops with the
// bus when the job reaches a terminal state — a long-lived Job handle
// (terminal jobs stay in the manager's map for status reads) must not
// pin one entry per distinct span name forever.
func TestBusRateLimitMapPruned(t *testing.T) {
	b := newBus()
	if !b.shouldEmit("generate/expand", time.Hour) {
		t.Fatal("first completion of a span name must always emit")
	}
	if b.shouldEmit("generate/expand", time.Hour) {
		t.Fatal("second completion within the interval must be rate-limited")
	}
	if !b.shouldEmit("generate/select", time.Hour) {
		t.Fatal("a new span name must emit")
	}
	if len(b.lastEmit) != 2 {
		t.Fatalf("lastEmit holds %d entries, want 2", len(b.lastEmit))
	}

	b.close()
	if b.lastEmit != nil {
		t.Fatal("lastEmit must be dropped when the bus closes")
	}

	// The closed bus keeps rejecting without touching the nil map.
	if b.shouldEmit("generate/atsp", 0) {
		t.Fatal("closed bus must not emit")
	}
	b.publish(Event{Type: "progress"})
	if b.lastEmit != nil {
		t.Fatal("post-close traffic must not resurrect the map")
	}
	b.close() // idempotent
}

// TestBusSubscribeAfterClose pins the late-subscriber contract the SSE
// reconnect path relies on: the ring still replays, and the live
// channel arrives already closed.
func TestBusSubscribeAfterClose(t *testing.T) {
	b := newBus()
	b.publish(Event{Type: "state", State: StateRunning})
	b.publish(Event{Type: "progress", Span: "generate/expand"})
	b.close()

	past, ch, cancel := b.subscribe()
	defer cancel()
	if len(past) != 2 {
		t.Fatalf("replay has %d events, want 2", len(past))
	}
	if past[0].Seq != 1 || past[1].Seq != 2 {
		t.Fatalf("replay seqs %d,%d, want 1,2", past[0].Seq, past[1].Seq)
	}
	if _, open := <-ch; open {
		t.Fatal("live channel after close must be closed")
	}
}

// TestBusProgressInSnapshotOrder publishes progress from many goroutines
// while the sweep fraction advances, as the selection sweep's producers
// do: the published stream must never step the fraction back.
func TestBusProgressInSnapshotOrder(t *testing.T) {
	b := newBus()
	run := obs.NewRun()
	const total = 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += 8 {
				run.Progress().Selection(int64(i), total)
				b.publishProgress(run, func(snap *obs.ProgressSnapshot) (Event, bool) {
					return Event{Type: "progress", Progress: snap}, true
				})
			}
		}(g)
	}
	wg.Wait()
	past, _, cancel := b.subscribe()
	defer cancel()
	last := -1.0
	for _, ev := range past {
		if ev.Progress.Fraction < last {
			t.Fatalf("event %d: fraction %v after %v", ev.Seq, ev.Progress.Fraction, last)
		}
		last = ev.Progress.Fraction
	}
}
