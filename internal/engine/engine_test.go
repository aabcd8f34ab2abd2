package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testSpec is a minimal sweep point; its key is its ID.
type testSpec struct {
	ID int
}

func specKey(s testSpec) string { return fmt.Sprintf("spec-%d", s.ID) }

// testResult must round-trip through JSON for the disk-cache tests.
type testResult struct {
	ID   int
	Seed uint64
	Val  float64
}

// computeFn derives the result purely from spec + seed, like a
// simulation does.
func computeFn(_ context.Context, s testSpec, seed uint64) (testResult, error) {
	return testResult{ID: s.ID, Seed: seed, Val: float64(seed%1000) / 1000}, nil
}

func specs(n int) []testSpec {
	out := make([]testSpec, n)
	for i := range out {
		out[i] = testSpec{ID: i}
	}
	return out
}

// TestDeterministicAcrossWorkerCounts is the engine's core contract:
// the result slice is a pure function of (specs, base seed), no matter
// how many workers race over the queue.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	in := specs(64)
	var runs [][]testResult
	for _, workers := range []int{1, 8} {
		e := New(specKey, computeFn, Options{Workers: workers, BaseSeed: 42})
		got, err := e.Run(context.Background(), in)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		runs = append(runs, got)
	}
	for i := range in {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("spec %d diverged across worker counts: %+v vs %+v", i, runs[0][i], runs[1][i])
		}
		if runs[0][i].ID != i {
			t.Fatalf("result %d out of order: %+v", i, runs[0][i])
		}
	}
}

// TestDeriveSeed pins the seed-derivation contract: deterministic,
// key- and base-sensitive, never zero.
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Error("derivation not deterministic")
	}
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Error("distinct keys map to the same seed")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("base seed does not influence the derived seed")
	}
	for base := uint64(0); base < 64; base++ {
		if DeriveSeed(base, "x") == 0 {
			t.Fatal("derived seed 0 would read as 'unset' downstream")
		}
	}
}

// TestMemoAccounting checks the in-memory layer: a re-run of the same
// batch computes nothing and reports full hits.
func TestMemoAccounting(t *testing.T) {
	var calls atomic.Int64
	counting := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		calls.Add(1)
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, counting, Options{Workers: 4})
	in := specs(20)
	for pass := 0; pass < 2; pass++ {
		if _, err := e.Run(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if calls.Load() != 20 {
		t.Errorf("computed %d times, want 20", calls.Load())
	}
	if st.Jobs != 40 || st.Unique != 40 || st.Ran != 20 || st.MemHits != 20 || st.DiskHits != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate %.2f, want 0.50", st.HitRate())
	}
}

// TestBatchDeduplication: duplicate fingerprints inside one batch are
// computed once and every index still gets its result.
func TestBatchDeduplication(t *testing.T) {
	var calls atomic.Int64
	counting := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		calls.Add(1)
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, counting, Options{Workers: 4})
	in := []testSpec{{ID: 7}, {ID: 8}, {ID: 7}, {ID: 7}}
	got, err := e.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("computed %d times, want 2", calls.Load())
	}
	if got[0] != got[2] || got[0] != got[3] || got[0].ID != 7 || got[1].ID != 8 {
		t.Errorf("duplicate indices not filled: %+v", got)
	}
	st := e.Stats()
	if st.Jobs != 4 || st.Unique != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDiskCache: a cold run populates the cache directory; a fresh
// engine over the same directory resolves everything from disk with
// identical results; a different base seed misses.
func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	in := specs(12)
	cold := New(specKey, computeFn, Options{Workers: 4, BaseSeed: 9, CacheDir: dir})
	want, err := cold.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Ran != 12 || st.Hits() != 0 {
		t.Errorf("cold stats = %+v", st)
	}

	warm := New(specKey, computeFn, Options{Workers: 4, BaseSeed: 9, CacheDir: dir})
	got, err := warm.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Ran != 0 || st.DiskHits != 12 {
		t.Errorf("warm stats = %+v", st)
	}
	if st.HitRate() < 0.9 {
		t.Errorf("warm hit rate %.2f, want > 0.9", st.HitRate())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spec %d changed across cache reload: %+v vs %+v", i, want[i], got[i])
		}
	}

	other := New(specKey, computeFn, Options{Workers: 4, BaseSeed: 10, CacheDir: dir})
	if _, err := other.Run(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if st := other.Stats(); st.DiskHits != 0 || st.Ran != 12 {
		t.Errorf("a different base seed must not alias the cache: %+v", st)
	}
}

// TestErrorPropagation: the first failing job aborts the sweep with an
// error that names its fingerprint.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	failing := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		if s.ID == 3 {
			return testResult{}, boom
		}
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, failing, Options{Workers: 2})
	_, err := e.Run(context.Background(), specs(8))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), specKey(testSpec{ID: 3})) {
		t.Errorf("error does not name the failed fingerprint: %v", err)
	}
}

// TestOneWorkerClaimsInOrderAndStopsAtFailure pins the job cursor: one
// worker runs the pending jobs in spec order and claims none after the
// first failure.
func TestOneWorkerClaimsInOrderAndStopsAtFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	failing := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		ran = append(ran, s.ID)
		if s.ID == 3 {
			return testResult{}, boom
		}
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, failing, Options{Workers: 1})
	if _, err := e.Run(context.Background(), specs(8)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := []int{0, 1, 2, 3}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}

// TestCancellationLeavesNoGoroutines cancels mid-sweep and asserts the
// goroutine count returns to its pre-Run level.
func TestCancellationLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	slow := func(ctx context.Context, s testSpec, seed uint64) (testResult, error) {
		if started.Add(1) == 3 {
			cancel() // pull the plug mid-sweep
		}
		time.Sleep(2 * time.Millisecond)
		return computeFn(ctx, s, seed)
	}
	e := New(specKey, slow, Options{Workers: 4, Progress: io.Discard})
	_, err := e.Run(ctx, specs(200))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 200 {
		t.Errorf("cancellation did not stop the sweep: %d jobs started", n)
	}

	// Workers exit before Run returns; allow the runtime a moment to
	// reap anything transient before comparing counts.
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
