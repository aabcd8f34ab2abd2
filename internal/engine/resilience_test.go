package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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
		t.Fatal("panicking job did not fail the FailFast sweep")
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
	if st := e.Stats(); st.Panicked == 0 {
		t.Errorf("stats did not count the panic: %+v", st)
	}
	checkNoGoroutineLeak(t, before)
}

// TestPanicContainmentUnderWatchdog: the same containment must hold on
// the watchdog path, where the attempt runs in a child goroutine.
func TestPanicContainmentUnderWatchdog(t *testing.T) {
	before := runtime.NumGoroutine()
	bomb := func(_ context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 1 {
			panic("boom under watchdog")
		}
		return computeFn(context.Background(), s, seed)
	}
	e := New(specKey, bomb, Options{Workers: 2, JobTimeout: time.Second})
	_, err := e.Run(context.Background(), specs(4))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRetryPreservesSeedAndResult is the determinism half of the retry
// contract: every attempt reuses the same derived seed, so a run that
// needed retries returns results identical to a clean run.
func TestRetryPreservesSeedAndResult(t *testing.T) {
	in := specs(16)
	clean := New(specKey, computeFn, Options{Workers: 4, BaseSeed: 11})
	want, err := clean.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seedsSeen := map[string][]uint64{}
	fails := map[string]int{}
	flaky := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		k := specKey(s)
		mu.Lock()
		seedsSeen[k] = append(seedsSeen[k], seed)
		n := fails[k]
		fails[k]++
		mu.Unlock()
		if s.ID%5 == 0 && n < 2 {
			return testResult{}, fmt.Errorf("transient failure %d of %s", n, k)
		}
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, flaky, Options{Workers: 4, BaseSeed: 11, Retries: 2})
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatalf("retries did not absorb the transient failures: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spec %d: retried run diverged from clean run: %+v vs %+v", i, got[i], want[i])
		}
	}
	for k, seeds := range seedsSeen {
		for _, s := range seeds[1:] {
			if s != seeds[0] {
				t.Fatalf("%s: retry changed the derived seed: %v", k, seeds)
			}
		}
	}
	if st := e.Stats(); st.Retried != 2*4 { // IDs 0,5,10,15 each retried twice
		t.Errorf("Retried = %d, want 8 (%+v)", st.Retried, st)
	}
}

// TestRetryExhaustion: a job that fails more often than Retries allows
// surfaces its last error — with no leaked goroutines.
func TestRetryExhaustion(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("permanent fault")
	failing := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 2 {
			return testResult{}, boom
		}
		return computeFn(ctx, s, seed)
	}
	var attempts atomic.Int64
	counting := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 2 {
			attempts.Add(1)
		}
		return failing(ctx, s, seed)
	}
	e := New(specKey, counting, Options{Workers: 2, Retries: 3})
	_, err := e.Run(context.Background(), specs(6))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped permanent fault", err)
	}
	if n := attempts.Load(); n != 4 {
		t.Errorf("made %d attempts, want 4 (1 + 3 retries)", n)
	}
	checkNoGoroutineLeak(t, before)
}

// TestWatchdogTimeout: a hung (context-honoring) job is killed by the
// watchdog, reported as a *TimeoutError, and leaves no goroutines.
func TestWatchdogTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	hang := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 3 {
			<-ctx.Done() // a hung simulation; only the watchdog gets us out
			return testResult{}, ctx.Err()
		}
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, hang, Options{Workers: 2, JobTimeout: 30 * time.Millisecond})
	_, err := e.Run(context.Background(), specs(8))
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *TimeoutError", err, err)
	}
	if te.Timeout != 30*time.Millisecond {
		t.Errorf("timeout %v recorded, want 30ms", te.Timeout)
	}
	if st := e.Stats(); st.TimedOut == 0 {
		t.Errorf("stats did not count the timeout: %+v", st)
	}
	checkNoGoroutineLeak(t, before)
}

// TestCollectPolicy: failures under Collect do not stop the sweep; the
// partial results carry every successful index and the RunError names
// each failed fingerprint in spec order.
func TestCollectPolicy(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	failing := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 2 || s.ID == 5 {
			return testResult{}, boom
		}
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, failing, Options{Workers: 4, Policy: Collect})
	got, err := e.Run(context.Background(), specs(8))
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RunError", err, err)
	}
	if len(re.Failures) != 2 || re.Jobs != 8 {
		t.Fatalf("RunError = %+v, want 2 failures of 8 jobs", re)
	}
	wantKeys := []string{specKey(testSpec{ID: 2}), specKey(testSpec{ID: 5})}
	gotKeys := re.Keys()
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Errorf("failure keys %v, want %v (spec order)", gotKeys, wantKeys)
		}
	}
	for i, r := range got {
		switch i {
		case 2, 5:
			if r != (testResult{}) {
				t.Errorf("failed spec %d holds non-zero result %+v", i, r)
			}
		default:
			want, _ := computeFn(context.Background(), testSpec{ID: i}, DeriveSeed(0, specKey(testSpec{ID: i})))
			if r != want {
				t.Errorf("spec %d: %+v, want %+v", i, r, want)
			}
		}
	}
	if st := e.Stats(); st.Failed != 2 || st.Ran != 6 {
		t.Errorf("stats = %+v, want 2 failed / 6 ran", st)
	}
	checkNoGoroutineLeak(t, before)
}

// TestCollectFailuresAreNotMemoized: a failed fingerprint must be
// recomputable — the next Run of the same batch retries it rather than
// replaying the failure from the memo.
func TestCollectFailuresAreNotMemoized(t *testing.T) {
	var failOnce atomic.Bool
	failOnce.Store(true)
	flaky := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 1 && failOnce.Swap(false) {
			return testResult{}, errors.New("first pass fails")
		}
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, flaky, Options{Workers: 2, Policy: Collect})
	if _, err := e.Run(context.Background(), specs(3)); err == nil {
		t.Fatal("first pass should report the failure")
	}
	got, err := e.Run(context.Background(), specs(3))
	if err != nil {
		t.Fatalf("second pass should heal: %v", err)
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
