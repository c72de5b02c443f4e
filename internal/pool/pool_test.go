package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"marchgen/internal/obs"
)

func TestSize(t *testing.T) {
	if got := Size(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Size(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Size(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Size(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Size(7); got != 7 {
		t.Fatalf("Size(7) = %d", got)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v, %v", got, err)
	}
	got, err = Map(4, 1, func(i int) (int, error) { return 42, nil })
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("single: %v, %v", got, err)
	}
}

// TestMapFirstErrorWins checks the sequential-equivalence contract: when
// several indices fail, the error of the smallest failing index is
// returned, exactly as a sequential loop would report.
func TestMapFirstErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(workers, 40, func(i int) (int, error) {
			if i%3 == 1 { // indices 1, 4, 7, ... fail
				return 0, fmt.Errorf("fail-%02d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail-01" {
			t.Fatalf("workers=%d: err = %v, want fail-01", workers, err)
		}
	}
}

func TestMapErrorStopsEarly(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	_, err := Map(2, 10000, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n == 10000 {
		t.Fatalf("error did not short-circuit: all %d indices ran", n)
	}
}

// TestMapConcurrent runs overlapping Map calls to give the race detector
// something to chew on.
func TestMapConcurrent(t *testing.T) {
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for r := 0; r < 20; r++ {
				got, err := Map(3, 30, func(i int) (int, error) { return i + 1, nil })
				if err != nil {
					done <- err
					return
				}
				for i, v := range got {
					if v != i+1 {
						done <- fmt.Errorf("got[%d] = %d", i, v)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamInOrder checks that consume receives every index once, in
// ascending order, with its own produce result, at any worker count.
func TestStreamInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		next := 0
		err := Stream(context.Background(), workers, 50,
			func(w, i int) (int, error) { return i * i, nil },
			func(i, v int) error {
				if i != next || v != i*i {
					return fmt.Errorf("consumed (%d, %d), want (%d, %d)", i, v, next, next*next)
				}
				next++
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if next != 50 {
			t.Fatalf("workers=%d: consumed %d of 50", workers, next)
		}
	}
}

// TestStreamFirstErrorWins checks the sequential-equivalence contract:
// the consumer sees exactly the indices before the smallest failing one,
// and that index's error is returned, whichever producer failed first in
// wall time.
func TestStreamFirstErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		var consumed []int
		err := Stream(context.Background(), workers, 40,
			func(w, i int) (int, error) {
				if i >= 7 && i%3 == 1 { // 7, 10, 13, ... fail; later ones fail faster
					time.Sleep(time.Duration(40-i) * 100 * time.Microsecond)
					return 0, fmt.Errorf("fail-%02d", i)
				}
				return i, nil
			},
			func(i, v int) error {
				consumed = append(consumed, i)
				return nil
			})
		if err == nil || err.Error() != "fail-07" {
			t.Fatalf("workers=%d: err = %v, want fail-07", workers, err)
		}
		if len(consumed) != 7 || consumed[6] != 6 {
			t.Fatalf("workers=%d: consumed %v, want 0..6", workers, consumed)
		}
	}
	// A consumer failure is an index failure too: nothing later is
	// consumed, and its error wins over later producer failures.
	stop := errors.New("stop")
	var last int
	err := Stream(context.Background(), 4, 100,
		func(w, i int) (int, error) {
			if i > 20 {
				return 0, errors.New("late producer failure")
			}
			return i, nil
		},
		func(i, v int) error {
			last = i
			if i == 12 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) || last != 12 {
		t.Fatalf("consumer stop: err = %v, last consumed %d", err, last)
	}
}

// TestStreamBoundedBuffer checks that producers never run more than
// 2×workers indices ahead of the consumer, even when the consumer is the
// bottleneck.
func TestStreamBoundedBuffer(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var outstanding, peak atomic.Int64
		err := Stream(context.Background(), workers, 200,
			func(w, i int) (int, error) {
				n := outstanding.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				return i, nil
			},
			func(i, v int) error {
				time.Sleep(50 * time.Microsecond)
				outstanding.Add(-1)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		bound := int64(2 * workers)
		if workers == 1 {
			bound = 1
		}
		if p := peak.Load(); p > bound {
			t.Fatalf("workers=%d: %d results outstanding, bound %d", workers, p, bound)
		}
	}
}

// TestStreamInlineInterleaves checks the one-worker configuration is the
// sequential loop: produce(i) and consume(i) alternate on the caller's
// goroutine.
func TestStreamInlineInterleaves(t *testing.T) {
	for _, workers := range []int{1, 0} {
		if workers == 0 && runtime.GOMAXPROCS(0) > 1 {
			continue // 0 means GOMAXPROCS
		}
		var log []string
		err := Stream(context.Background(), workers, 4,
			func(w, i int) (int, error) {
				if w != 0 {
					return 0, fmt.Errorf("inline producer %d", w)
				}
				log = append(log, fmt.Sprintf("p%d", i))
				return i, nil
			},
			func(i, v int) error {
				log = append(log, fmt.Sprintf("c%d", i))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(log), "[p0 c0 p1 c1 p2 c2 p3 c3]"; got != want {
			t.Fatalf("workers=%d: order %s, want %s", workers, got, want)
		}
	}
}

// TestStreamNoLeakedProducers checks that Stream returns only after every
// producer goroutine has exited, after a consumer stop and after a
// context cancellation that producers observe.
func TestStreamNoLeakedProducers(t *testing.T) {
	base := runtime.NumGoroutine()
	var running atomic.Int64
	produce := func(ctx context.Context) func(w, i int) (int, error) {
		return func(w, i int) (int, error) {
			running.Add(1)
			defer running.Add(-1)
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(200 * time.Microsecond):
				return i, nil
			}
		}
	}
	stop := errors.New("stop")
	err := Stream(context.Background(), 4, 1000, produce(context.Background()),
		func(i, v int) error {
			if i == 10 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("consumer stop: err = %v", err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("consumer stop: %d produce calls still running", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	err = Stream(ctx, 4, 1000, produce(ctx),
		func(i, v int) error {
			if i == 10 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: err = %v", err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("cancel: %d produce calls still running", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the streams, %d before", n, base)
	}
}

// TestStreamObserved checks the fan-out reports to the run on the
// context: producer busy time lands in pool.worker.N.busy_ns.
func TestStreamObserved(t *testing.T) {
	run := obs.NewRun()
	ctx := obs.Into(context.Background(), run)
	err := Stream(ctx, 2, 20,
		func(w, i int) (int, error) { time.Sleep(100 * time.Microsecond); return i, nil },
		func(i, v int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	snap := run.Snapshot()
	if snap["pool.fanouts"] != 1 || snap["pool.tasks"] != 20 {
		t.Fatalf("fan-out counters %v", snap)
	}
	if snap["pool.worker.0.busy_ns"]+snap["pool.worker.1.busy_ns"] <= 0 {
		t.Fatalf("no producer busy time in %v", snap)
	}
}

// TestStreamProducerPanic checks a producer panic is a failure of its
// index: the consumer sees every earlier index, then the panic is
// re-raised on the caller's goroutine — where a recover boundary catches
// it — after every producer has exited.
func TestStreamProducerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var consumed []int
		var running atomic.Int64
		got := func() (p any) {
			defer func() { p = recover() }()
			_ = Stream(context.Background(), workers, 100,
				func(w, i int) (int, error) {
					running.Add(1)
					defer running.Add(-1)
					if i == 5 {
						panic("boom")
					}
					return i, nil
				},
				func(i, v int) error {
					consumed = append(consumed, i)
					return nil
				})
			return nil
		}()
		if got == nil {
			t.Fatalf("workers=%d: no panic reached the caller", workers)
		}
		if pe, ok := got.(*PanicError); ok && pe.Value != "boom" {
			t.Fatalf("workers=%d: panic value %v", workers, pe.Value)
		} else if !ok && got != "boom" {
			t.Fatalf("workers=%d: panic %v", workers, got)
		}
		if fmt.Sprint(consumed) != "[0 1 2 3 4]" {
			t.Fatalf("workers=%d: consumed %v before the panic", workers, consumed)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("workers=%d: %d produce calls still running", workers, n)
		}
	}
}
