// Package pool provides the bounded worker pool behind the §5 selection
// sweep, the only parallelism in the module: Stream runs the sweep's
// producers and Map its up-front TPG reductions. Work is always
// expressed over an index space — fn(i) for i in [0, n) — and results
// are collected (Map) or consumed (Stream) by index, so the output of a
// parallel run is byte-identical to the sequential one regardless of the
// worker count or goroutine scheduling. Errors are reduced the same way:
// when several workers fail, the error of the smallest index wins, which
// is exactly the error the sequential loop would have returned first.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"marchgen/internal/obs"
)

// Size normalises a worker count: n <= 0 selects runtime.GOMAXPROCS(0)
// (the GOMAXPROCS-aware default), anything else is returned unchanged.
func Size(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results in index order. A failing index cancels the indices
// not yet started; among the failures observed, the one with the smallest
// index is returned (matching what a sequential loop would report). With
// workers <= 1 or n <= 1 no goroutine is spawned and fn runs inline, so
// the sequential engine is literally the workers=1 configuration.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers = Size(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64 // next index to claim
		failed atomic.Bool  // latched on first failure: stop claiming
		mu     sync.Mutex   // guards errIdx/errVal
		errIdx = -1
		errVal error
		wg     sync.WaitGroup
	)
	record := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, errVal = i, err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					record(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if errVal != nil {
		return nil, errVal
	}
	return out, nil
}

// observe records one fan-out of n tasks, at most depth of them
// outstanding at once, to the run on ctx and returns the per-worker
// busy-time reporter (nil without a run).
func observe(ctx context.Context, n, depth int) func(worker int, busy time.Duration) {
	run := obs.From(ctx)
	if run == nil {
		return nil
	}
	run.Counter("pool.fanouts").Inc()
	run.Counter("pool.tasks").Add(int64(n))
	run.Histogram("pool.fanout.n").Observe(int64(n))
	run.Gauge("pool.queue.depth").Max(int64(depth))
	return func(worker int, busy time.Duration) {
		run.Counter(fmt.Sprintf("pool.worker.%d.busy_ns", worker)).Add(int64(busy))
	}
}

// Stream is the streaming sibling of Map: produce(w, i) runs for every
// i in [0, n) on at most workers goroutines, and consume(i, v) receives
// each result on the calling goroutine in ascending index order as soon
// as it and every earlier result are ready. w is the producer's index in
// [0, workers), so callers can keep producer-local state without locks.
// Producers run at most 2×workers indices ahead of the consumer, so at
// most that many results are held at once, and each is released once
// consumed.
//
// Errors follow the sequential loop: Stream returns the error of the
// first index, in index order, whose produce or consume failed; every
// earlier index has been consumed and no later one is. A failure stops
// producers from claiming further indices, and Stream returns only after
// every producer goroutine has exited. A panic in produce is a failure
// of its index too: it is re-raised on the calling goroutine as a
// *PanicError, so a recover there catches it as it would a sequential
// loop's. Stream takes ctx for observation only: the fan-out count, task
// total, window depth and per-worker busy time land in the metrics of
// the run attached to ctx (see internal/obs), and cancellation reaches
// the stream through the errors produce and consume return. With workers <= 1 or n <= 1 no goroutine is spawned and
// produce(0, i) and consume(i) alternate inline, so the sequential loop
// is literally the workers=1 configuration. Per-worker busy time counts
// produce calls only.
func Stream[T any](ctx context.Context, workers, n int, produce func(w, i int) (T, error), consume func(i int, v T) error) error {
	if n == 0 {
		return nil
	}
	workers = Size(workers)
	if workers > n {
		workers = n
	}
	window := 2 * workers
	if window > n {
		window = n
	}
	done := observe(ctx, n, window)
	if workers <= 1 || n == 1 {
		var busy time.Duration
		if done != nil {
			defer func() { done(0, busy) }()
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			v, err := produce(0, i)
			busy += time.Since(t0)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	// A producer takes a token before claiming the next index and the
	// consumer returns one per consumed index, so the claimed but
	// unconsumed indices always lie in [head, head+window): each maps to
	// its own slot, and a slot is empty again before its next index can
	// be claimed, so sends never block.
	tokens := make(chan struct{}, window)
	slots := make([]chan streamResult[T], window)
	for k := range slots {
		tokens <- struct{}{}
		slots[k] = make(chan streamResult[T], 1)
	}
	var (
		next   atomic.Int64 // next index to claim
		failed atomic.Bool  // latched on the first failure: stop claiming
		quit   = make(chan struct{})
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var busy time.Duration
			if done != nil {
				defer func() { done(w, busy) }()
			}
			for {
				select {
				case <-tokens:
				case <-quit:
					return
				}
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				r := produceOne(produce, w, i)
				busy += time.Since(t0)
				if r.err != nil || r.panic != nil {
					failed.Store(true)
				}
				slots[i%window] <- r
			}
		}(w)
	}
	// Stop and join the producers on every way out, a panic in consume
	// included.
	defer func() {
		failed.Store(true)
		close(quit)
		wg.Wait()
	}()
	var err error
	for i := 0; i < n && err == nil; i++ {
		r := <-slots[i%window]
		switch {
		case r.panic != nil:
			panic(r.panic)
		case r.err != nil:
			err = r.err
		default:
			err = consume(i, r.v)
		}
		tokens <- struct{}{}
	}
	return err
}

// PanicError is a panic raised by a Stream producer, re-raised on the
// consumer's goroutine.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the producer's stack at the panic.
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprint(p.Value) }

// streamResult is one produced index: its value, or its failure.
type streamResult[T any] struct {
	v     T
	err   error
	panic *PanicError
}

// produceOne runs produce(w, i), turning a panic into a *PanicError.
func produceOne[T any](produce func(w, i int) (T, error), w, i int) (r streamResult[T]) {
	defer func() {
		if p := recover(); p != nil {
			r.panic = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	r.v, r.err = produce(w, i)
	return r
}
