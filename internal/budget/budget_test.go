package budget

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestNilMeterIsNoOp(t *testing.T) {
	var m *Meter
	if err := m.Check(); err != nil {
		t.Fatalf("nil meter Check: %v", err)
	}
	if err := m.CheckNow(); err != nil {
		t.Fatalf("nil meter CheckNow: %v", err)
	}
	if err := m.Node(); err != nil {
		t.Fatalf("nil meter Node: %v", err)
	}
	if m.SoftExpired() {
		t.Fatal("nil meter reports soft expiry")
	}
}

func TestCheckMapsContextErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMeter(ctx, Budget{})
	if err := m.CheckNow(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: got %v, want ErrCanceled", err)
	}

	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	m2 := NewMeter(ctx2, Budget{})
	if err := m2.CheckNow(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ctx: got %v, want ErrDeadlineExceeded", err)
	}
}

func TestCheckStrideEventuallyObservesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := NewMeter(ctx, Budget{})
	cancel()
	var err error
	for i := 0; i < 2*checkStride && err == nil; i++ {
		err = m.Check()
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("stride checks never observed cancellation: %v", err)
	}
	// The error latches.
	if err := m.Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("latched error lost: %v", err)
	}
}

func TestNodeBudgetExhausts(t *testing.T) {
	m := NewMeter(context.Background(), Budget{ATSPNodes: 3})
	for i := 0; i < 3; i++ {
		if err := m.Node(); err != nil {
			t.Fatalf("node %d within budget: %v", i, err)
		}
	}
	if err := m.Node(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over budget: got %v, want ErrBudgetExhausted", err)
	}
	// Exhaustion latches without growing the count.
	if err := m.Node(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("latched exhaustion lost: %v", err)
	}
	if m.Nodes() != 4 {
		t.Fatalf("Nodes() = %d, want 4", m.Nodes())
	}
}

func TestSoftExpired(t *testing.T) {
	past := NewMeter(context.Background(), Budget{Deadline: time.Now().Add(-time.Millisecond)})
	if !past.SoftExpired() {
		t.Fatal("past soft deadline not reported expired")
	}
	future := NewMeter(context.Background(), Budget{Deadline: time.Now().Add(time.Hour)})
	if future.SoftExpired() {
		t.Fatal("future soft deadline reported expired")
	}
	if err := past.CheckNow(); err != nil {
		t.Fatalf("soft deadline must not hard-cancel: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	b, err := ParseSpec("nodes=100, selections=4,candidates=7")
	if err != nil {
		t.Fatal(err)
	}
	if b.ATSPNodes != 100 || b.Selections != 4 || b.Candidates != 7 || !b.Deadline.IsZero() {
		t.Fatalf("unexpected budget %+v", b)
	}
	b, err = ParseSpec("soft=250ms")
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Until(b.Deadline); d <= 0 || d > time.Second {
		t.Fatalf("soft deadline %v not ~250ms ahead", d)
	}
	if b, err := ParseSpec(""); err != nil || !b.Unlimited() {
		t.Fatalf("empty spec: %+v, %v", b, err)
	}
	for _, bad := range []string{"nodes", "nodes=x", "soft=abc", "frobs=3", "nodes=-1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestParseSpecZeroIsUsageError locks the fix for the zero-limit hole:
// "nodes=0" used to parse as the unlimited budget — the opposite of what
// it reads as. Every malformed or zero entry must wrap ErrUsage so the
// CLIs exit with code 2.
func TestParseSpecZeroIsUsageError(t *testing.T) {
	for _, bad := range []string{
		"nodes=0", "selections=0", "candidates=0", "soft=0s", "soft=-1s",
		"nodes=-5", "nodes=", "=3", "nodes=1,selections=0",
	} {
		_, err := ParseSpec(bad)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
			continue
		}
		if !errors.Is(err, ErrUsage) {
			t.Errorf("ParseSpec(%q): %v does not wrap ErrUsage", bad, err)
		}
	}
}

func TestBudgetValidate(t *testing.T) {
	if err := (Budget{}).Validate(); err != nil {
		t.Fatalf("zero budget rejected: %v", err)
	}
	if err := (Budget{ATSPNodes: 10, Selections: 2, Candidates: 3}).Validate(); err != nil {
		t.Fatalf("valid budget rejected: %v", err)
	}
	for _, b := range []Budget{{ATSPNodes: -1}, {Selections: -2}, {Candidates: -3}} {
		err := b.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted", b)
			continue
		}
		if !errors.Is(err, ErrUsage) {
			t.Errorf("Validate(%+v): %v does not wrap ErrUsage", b, err)
		}
	}
}

func TestParseWorkers(t *testing.T) {
	if n, err := ParseWorkers(0); err != nil || n != runtime.GOMAXPROCS(0) {
		t.Fatalf("ParseWorkers(0) = %d, %v", n, err)
	}
	if n, err := ParseWorkers(5); err != nil || n != 5 {
		t.Fatalf("ParseWorkers(5) = %d, %v", n, err)
	}
	_, err := ParseWorkers(-1)
	if !errors.Is(err, ErrUsage) {
		t.Fatalf("ParseWorkers(-1): %v does not wrap ErrUsage", err)
	}
	if ExitCode(err) != ExitUsage {
		t.Fatalf("ExitCode(%v) = %d, want %d", err, ExitCode(err), ExitUsage)
	}
}

// TestMeterConcurrentNodeAccounting exercises the meter under concurrent
// charging: many goroutines charging one shared node budget. The total number of successful charges must equal the
// budget exactly, and exhaustion must latch for every worker.
func TestMeterConcurrentNodeAccounting(t *testing.T) {
	const budget = 1000
	m := NewMeter(context.Background(), Budget{ATSPNodes: budget})
	var ok, exhausted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			myOK, myEx := int64(0), int64(0)
			for i := 0; i < 500; i++ {
				switch err := m.Node(); {
				case err == nil:
					myOK++
				case errors.Is(err, ErrBudgetExhausted):
					myEx++
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
			mu.Lock()
			ok += myOK
			exhausted += myEx
			mu.Unlock()
		}()
	}
	wg.Wait()
	if ok != budget {
		t.Fatalf("%d charges succeeded, want exactly %d", ok, budget)
	}
	if exhausted != 8*500-budget {
		t.Fatalf("%d charges exhausted, want %d", exhausted, 8*500-budget)
	}
	if err := m.Node(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("exhaustion did not latch: %v", err)
	}
}

// TestMeterConcurrentCancelLatch checks that hard cancellation observed by
// one goroutine is visible to all others, exactly once, with a consistent
// error.
func TestMeterConcurrentCancelLatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := NewMeter(ctx, Budget{})
	cancel()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			for i := 0; i < 4*checkStride && err == nil; i++ {
				err = m.Check()
			}
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("worker never observed cancellation: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestInternalError(t *testing.T) {
	base := errors.New("boom")
	e := &InternalError{Stage: "generate", Value: base, Stack: []byte("stack")}
	if !errors.Is(e, ErrInternal) {
		t.Fatal("InternalError does not match ErrInternal")
	}
	if !errors.Is(e, base) {
		t.Fatal("InternalError does not unwrap its error value")
	}
	var ie *InternalError
	if !errors.As(error(e), &ie) || ie.Stage != "generate" {
		t.Fatal("errors.As failed to recover *InternalError")
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{ErrUsage, ExitUsage},
		{fmt.Errorf("wrap: %w", ErrUsage), ExitUsage},
		{ErrCanceled, ExitCanceled},
		{ErrDeadlineExceeded, ExitCanceled},
		{ErrBudgetExhausted, ExitFail},
		{errors.New("other"), ExitFail},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
