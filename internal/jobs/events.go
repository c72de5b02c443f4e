package jobs

import (
	"sync"
	"time"

	"marchgen/internal/obs"
)

// Event is one job progress notification, streamed to subscribers (the
// SSE endpoint) and retained in a bounded replay ring so a late
// subscriber still sees the recent history. Seq orders events within one
// job; Type selects which optional fields are meaningful.
type Event struct {
	// Seq orders events within one job, assigned by the bus.
	Seq int `json:"seq"`
	// Type is "state" (a lifecycle transition or checkpoint — State,
	// Stage, Checkpoints, and on terminal events ResultHash or Error are
	// set) or "progress" (a finished pipeline span — Span, DurUS, Stage).
	Type string `json:"type"`
	// State is the lifecycle state a "state" event announces.
	State State `json:"state,omitempty"`
	// Stage names the engine stage the event belongs to.
	Stage string `json:"stage,omitempty"`

	// Span is the finished span's name on "progress" events.
	Span string `json:"span,omitempty"`
	// DurUS is the finished span's duration in microseconds.
	DurUS int64 `json:"dur_us,omitempty"`

	// Checkpoints echoes the record's persisted-checkpoint count.
	Checkpoints int `json:"checkpoints,omitempty"`
	// ResultHash carries the committed result hash on terminal events.
	ResultHash string `json:"result_hash,omitempty"`
	// Error carries the typed error on terminal failure events.
	Error *JobError `json:"error,omitempty"`

	// Progress is the engine's live-progress snapshot at emission time
	// (stage, sweep fraction, incumbent cost vs lower bound,
	// coverage-so-far, node rate, ETA) on "progress" events of a job this
	// process is executing. Replayed history keeps the snapshot that was
	// current when the event was published.
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
}

// ringCap bounds the replay ring; subChanCap buffers each subscriber.
// A subscriber that falls further behind than its buffer loses events
// (progress is advisory; the durable record is the source of truth), it
// is never blocked on.
const (
	ringCap    = 256
	subChanCap = 64
)

// bus is one job's event fan-out: a bounded replay ring plus live
// subscriber channels. Closed exactly once, when the job reaches a
// terminal state or is interrupted by shutdown.
type bus struct {
	mu       sync.Mutex
	seq      int
	ring     []Event
	subs     map[int]chan Event
	nextSub  int
	closed   bool
	lastEmit map[string]time.Time
}

func newBus() *bus {
	return &bus{subs: map[int]chan Event{}, lastEmit: map[string]time.Time{}}
}

// publish assigns the event its sequence number, retains it in the ring
// and offers it to every live subscriber without blocking.
func (b *bus) publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.publishLocked(ev)
}

// publishProgress publishes the event build makes from the run's live
// progress snapshot (nil without a run), reading the snapshot under the
// bus lock. Spans finish on several goroutines at once — the selection
// sweep's producers end theirs while the fold moves on — and reading and
// publishing in one step keeps the stream in snapshot order, so its
// monotone cells (sweep fraction, nodes, candidates) never step back.
// build returns false to skip the event.
func (b *bus) publishProgress(run *obs.Run, build func(snap *obs.ProgressSnapshot) (Event, bool)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var snap *obs.ProgressSnapshot
	if run != nil {
		s := run.ProgressSnapshot()
		snap = &s
	}
	if ev, ok := build(snap); ok {
		b.publishLocked(ev)
	}
}

// publishLocked is publish with b.mu held.
func (b *bus) publishLocked(ev Event) {
	if b.closed {
		return
	}
	b.seq++
	ev.Seq = b.seq
	b.ring = append(b.ring, ev)
	if len(b.ring) > ringCap {
		b.ring = b.ring[len(b.ring)-ringCap:]
	}
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, never block the engine
		}
	}
}

// shouldEmit rate-limits progress events per span name: the first
// completion of each name always passes (so short jobs still produce a
// visible trace), later ones pass at most once per interval.
func (b *bus) shouldEmit(name string, every time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	now := time.Now()
	last, seen := b.lastEmit[name]
	if seen && now.Sub(last) < every {
		return false
	}
	b.lastEmit[name] = now
	return true
}

// subscribe returns the replayable history and a live channel. The
// channel closes when the bus closes; cancel detaches early.
func (b *bus) subscribe() (past []Event, ch <-chan Event, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	past = append([]Event(nil), b.ring...)
	c := make(chan Event, subChanCap)
	if b.closed {
		close(c)
		return past, c, func() {}
	}
	id := b.nextSub
	b.nextSub++
	b.subs[id] = c
	return past, c, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if ch, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(ch)
		}
	}
}

// close ends the stream: every subscriber channel closes after draining
// its buffer. Idempotent.
func (b *bus) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	// The rate-limit map exists only to throttle live emission: drop it
	// with the stream so a long-lived Job handle (status reads keep
	// terminal jobs in the manager's map) does not pin one entry per
	// distinct span name for the rest of the process.
	b.lastEmit = nil
	for id, ch := range b.subs {
		delete(b.subs, id)
		close(ch)
	}
}
