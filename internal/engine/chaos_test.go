// Chaos test: a sweep killed mid-run resumes from the disk cache. It
// lives in an external test package so it drives the engine through its
// exported API only, as a command does.
package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"suit/internal/engine"
)

type chaosSpec struct{ ID int }

func chaosKey(s chaosSpec) string { return fmt.Sprintf("chaos-%d", s.ID) }

type chaosResult struct {
	ID   int
	Seed uint64
	Val  float64
}

func chaosCompute(_ context.Context, s chaosSpec, seed uint64) (chaosResult, error) {
	return chaosResult{ID: s.ID, Seed: seed, Val: float64(seed%1000) / 1000}, nil
}

func chaosSpecs(n int) []chaosSpec {
	out := make([]chaosSpec, n)
	for i := range out {
		out[i] = chaosSpec{ID: i}
	}
	return out
}

// TestChaosInterruptedSweepResumesFromCache kills a sweep mid-run and
// re-runs it on the same cache directory: the output must be
// byte-identical to an uninterrupted run, every job the first run
// finished must come back as a disk hit, only the rest may run, and
// every job, hit or run, reports progress once.
func TestChaosInterruptedSweepResumesFromCache(t *testing.T) {
	cacheDir := t.TempDir()
	in := chaosSpecs(40)

	// Reference: one uninterrupted run, no cache involved.
	ref := engine.New(chaosKey, chaosCompute, engine.Options{Workers: 4, BaseSeed: 7})
	want, err := ref.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	// First run: killed (context cancelled, like SIGINT) after ~10 jobs.
	ctx, cancel := context.WithCancel(context.Background())
	var calls1 atomic.Int64
	counting1 := func(c context.Context, s chaosSpec, seed uint64) (chaosResult, error) {
		if calls1.Add(1) == 10 {
			cancel()
		}
		return chaosCompute(c, s, seed)
	}
	e1 := engine.New(chaosKey, counting1, engine.Options{Workers: 4, BaseSeed: 7, CacheDir: cacheDir})
	if _, err := e1.Run(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	finished := e1.Stats().Ran
	if finished == 0 || finished >= int64(len(in)) {
		t.Fatalf("interruption finished %d jobs, want a strict partial", finished)
	}

	// Second run: same cache, fresh engine (a new process).
	var calls2 atomic.Int64
	counting2 := func(c context.Context, s chaosSpec, seed uint64) (chaosResult, error) {
		calls2.Add(1)
		return chaosCompute(c, s, seed)
	}
	e2 := engine.New(chaosKey, counting2, engine.Options{Workers: 4, BaseSeed: 7, CacheDir: cacheDir})
	var resolved atomic.Int64
	got, err := e2.RunProgress(context.Background(), in, func() { resolved.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("re-run output is not byte-identical to the uninterrupted run")
	}
	st := e2.Stats()
	if st.DiskHits != finished {
		t.Errorf("re-run served %d jobs from disk, the interrupted run finished %d", st.DiskHits, finished)
	}
	if st.Ran+st.DiskHits != int64(len(in)) {
		t.Errorf("re-run accounting broken: %+v", st)
	}
	if calls2.Load() != st.Ran {
		t.Errorf("job function ran %d times, Stats.Ran = %d", calls2.Load(), st.Ran)
	}
	if resolved.Load() != int64(len(in)) {
		t.Errorf("re-run reported %d jobs resolved, want %d", resolved.Load(), len(in))
	}
}
