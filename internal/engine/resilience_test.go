package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// checkNoGoroutineLeak polls until the goroutine count returns to its
// pre-test level; every recovery path must leave the pool fully
// drained.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicContainment: a panicking job must become a typed error with
// the panic value and stack attached — never a crashed sweep.
func TestPanicContainment(t *testing.T) {
	before := runtime.NumGoroutine()
	bomb := func(_ context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 3 {
			panic("simulated core meltdown")
		}
		return computeFn(context.Background(), s, seed)
	}
	e := New(specKey, bomb, Options{Workers: 2})
	_, err := e.Run(context.Background(), specs(8))
	if err == nil {
		t.Fatal("panicking job did not fail the sweep")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if fmt.Sprint(pe.Value) != "simulated core meltdown" {
		t.Errorf("panic value %v lost", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if st := e.Stats(); st.Failed != 1 || st.Panicked != 1 {
		t.Errorf("stats = %+v, want the panicked job counted once in Failed and Panicked", st)
	}
	checkNoGoroutineLeak(t, before)
}

// TestFailedJobIsNotMemoized: a failed fingerprint must be recomputable
// — a later Run executes it again rather than replaying the failure
// from the memo or the disk cache.
func TestFailedJobIsNotMemoized(t *testing.T) {
	var failOnce atomic.Bool
	failOnce.Store(true)
	var calls atomic.Int64
	flaky := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 1 {
			calls.Add(1)
			if failOnce.Swap(false) {
				return testResult{}, errors.New("first pass fails")
			}
		}
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, flaky, Options{Workers: 2, CacheDir: t.TempDir()})
	if _, err := e.Run(context.Background(), specs(3)); err == nil {
		t.Fatal("first pass should report the failure")
	}
	got, err := e.Run(context.Background(), specs(3))
	if err != nil {
		t.Fatalf("second pass should heal: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("failed fingerprint ran %d times, want 2", n)
	}
	want, _ := computeFn(context.Background(), testSpec{ID: 1}, DeriveSeed(0, specKey(testSpec{ID: 1})))
	if got[1] != want {
		t.Errorf("healed result %+v, want %+v", got[1], want)
	}
}

// TestRetryDelayDeterministic pins the backoff contract: a pure
// function of (base, fingerprint, attempt), growing with attempt,
// jittered apart across fingerprints, and zero for a zero base.
func TestRetryDelayDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	if RetryDelay(base, "k", 1) != RetryDelay(base, "k", 1) {
		t.Error("backoff not deterministic")
	}
	if RetryDelay(0, "k", 3) != 0 {
		t.Error("zero base must retry immediately")
	}
	if RetryDelay(base, "k", 4) <= RetryDelay(base, "k", 0) {
		t.Error("backoff does not grow with attempt")
	}
	if RetryDelay(base, "a", 0) == RetryDelay(base, "b", 0) {
		t.Error("distinct fingerprints should jitter apart")
	}
	// Bounded: never more than 32x base plus half-jitter.
	if d := RetryDelay(base, "k", 40); d > 48*base {
		t.Errorf("backoff %v exceeds its cap", d)
	}
}

// TestCancellationReturnsPartialResults: aborting mid-sweep returns the
// completed prefix so callers (and the disk cache) keep finished work.
func TestCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	slow := func(c context.Context, s testSpec, seed uint64) (testResult, error) {
		if started.Add(1) == 5 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return computeFn(c, s, seed)
	}
	e := New(specKey, slow, Options{Workers: 2})
	got, err := e.Run(ctx, specs(50))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got == nil {
		t.Fatal("cancellation must return the partial results, not nil")
	}
	if len(got) != 50 {
		t.Fatalf("partial result slice has %d entries, want 50", len(got))
	}
}
