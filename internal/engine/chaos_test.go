// Chaos tests: deterministic fault injection over full sweeps. These
// live in an external test package because they drive the engine
// through internal/engine/faultinject, which itself imports the engine.
package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"suit/internal/engine"
	"suit/internal/engine/faultinject"
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

func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCollectSweep is the acceptance scenario: an injected error,
// panic and hang plus a corrupted cache entry inside a 100-spec sweep
// under the Collect policy. The sweep must complete with exactly the
// unaffected results present, a RunError naming each failed spec by
// fingerprint, the corrupt entry quarantined and recomputed correctly,
// and zero leaked goroutines.
func TestChaosCollectSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	in := chaosSpecs(100)
	const baseSeed = 5

	keyErr := chaosKey(in[7])
	keyPanic := chaosKey(in[23])
	keyHang := chaosKey(in[61])
	keyCorrupt := chaosKey(in[42])

	// Pre-populate spec 42's cache entry, then damage it on disk.
	pre := engine.New(chaosKey, chaosCompute, engine.Options{BaseSeed: baseSeed, CacheDir: dir})
	if _, err := pre.Run(context.Background(), []chaosSpec{in[42]}); err != nil {
		t.Fatal(err)
	}
	corruptPath := engine.CachePath(dir, baseSeed, keyCorrupt)
	if err := faultinject.CorruptFile(corruptPath, 1); err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(faultinject.Plan{
		Faults: map[string]faultinject.Kind{
			keyErr:   faultinject.Error,
			keyPanic: faultinject.Panic,
			keyHang:  faultinject.Hang,
		},
		Times: -1, // every attempt faults: the three jobs must exhaust retries
	}, chaosKey, engine.RunFunc[chaosSpec, chaosResult](chaosCompute))

	e := engine.New(chaosKey, inj.Run, engine.Options{
		Workers:    8,
		BaseSeed:   baseSeed,
		CacheDir:   dir,
		Policy:     engine.Collect,
		Retries:    1,
		JobTimeout: 50 * time.Millisecond,
	})
	got, err := e.Run(context.Background(), in)

	var re *engine.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RunError", err, err)
	}
	wantFailed := []string{keyErr, keyPanic, keyHang} // spec order: 7, 23, 61
	if keys := re.Keys(); len(keys) != 3 || keys[0] != wantFailed[0] || keys[1] != wantFailed[1] || keys[2] != wantFailed[2] {
		t.Fatalf("failed fingerprints %v, want %v", re.Keys(), wantFailed)
	}
	var pe *engine.PanicError
	var te *engine.TimeoutError
	var injected, panicked, timedOut bool
	for _, f := range re.Failures {
		switch {
		case errors.Is(f.Err, faultinject.ErrInjected):
			injected = true
		case errors.As(f.Err, &pe):
			panicked = true
		case errors.As(f.Err, &te):
			timedOut = true
		}
		if f.Attempts != 2 {
			t.Errorf("%s: %d attempts, want 2 (1 + 1 retry)", f.Key, f.Attempts)
		}
	}
	if !injected || !panicked || !timedOut {
		t.Errorf("failure causes lost: injected=%v panicked=%v timedOut=%v", injected, panicked, timedOut)
	}

	// Every unaffected spec — including the one whose cache entry was
	// corrupted — carries its correct deterministic result.
	for i, r := range got {
		switch i {
		case 7, 23, 61:
			if r != (chaosResult{}) {
				t.Errorf("failed spec %d holds non-zero result %+v", i, r)
			}
		default:
			want, _ := chaosCompute(context.Background(), in[i], engine.DeriveSeed(baseSeed, chaosKey(in[i])))
			if r != want {
				t.Errorf("spec %d: %+v, want %+v", i, r, want)
			}
		}
	}

	st := e.Stats()
	if st.Failed != 3 {
		t.Errorf("Failed = %d, want 3 (%+v)", st.Failed, st)
	}
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1: the corrupt entry must be healed, not fatal (%+v)", st.Quarantined, st)
	}
	if st.Panicked == 0 || st.TimedOut == 0 {
		t.Errorf("cause accounting lost: %+v", st)
	}
	waitNoLeak(t, before)
}

// TestChaosRetriedRunIsByteIdentical: transient injected faults
// absorbed by retries must not change a single byte of the output —
// the retried attempt reuses the derived seed.
func TestChaosRetriedRunIsByteIdentical(t *testing.T) {
	in := chaosSpecs(64)
	clean := engine.New(chaosKey, chaosCompute, engine.Options{Workers: 4, BaseSeed: 9})
	want, err := clean.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(faultinject.Plan{
		Seed: 77, Rate: 0.3, RateKind: faultinject.Error, Times: 2,
	}, chaosKey, engine.RunFunc[chaosSpec, chaosResult](chaosCompute))
	flaky := engine.New(chaosKey, inj.Run, engine.Options{Workers: 4, BaseSeed: 9, Retries: 2})
	got, err := flaky.Run(context.Background(), in)
	if err != nil {
		t.Fatalf("retries did not absorb the injected faults: %v", err)
	}

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("retried run is not byte-identical to the clean run")
	}
	if st := flaky.Stats(); st.Retried == 0 {
		t.Errorf("injection plan never fired: %+v", st)
	}
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

// TestChaosHangsDegradeGracefully: several context-honoring hangs at
// once must not stall the pool — the watchdog frees every worker and
// the healthy majority completes.
func TestChaosHangsDegradeGracefully(t *testing.T) {
	before := runtime.NumGoroutine()
	in := chaosSpecs(30)
	plan := faultinject.Plan{Faults: map[string]faultinject.Kind{}, Times: -1}
	for _, i := range []int{3, 11, 19, 27} {
		plan.Faults[chaosKey(in[i])] = faultinject.Hang
	}
	inj := faultinject.New(plan, chaosKey, engine.RunFunc[chaosSpec, chaosResult](chaosCompute))
	e := engine.New(chaosKey, inj.Run, engine.Options{
		Workers: 2, BaseSeed: 3, Policy: engine.Collect, JobTimeout: 20 * time.Millisecond,
	})
	got, err := e.Run(context.Background(), in)
	var re *engine.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RunError", err, err)
	}
	if len(re.Failures) != 4 {
		t.Fatalf("%d failures, want the 4 hung jobs", len(re.Failures))
	}
	for _, f := range re.Failures {
		var te *engine.TimeoutError
		if !errors.As(f.Err, &te) {
			t.Errorf("%s failed with %v, want a watchdog timeout", f.Key, f.Err)
		}
	}
	healthy := 0
	for i, r := range got {
		if r != (chaosResult{}) {
			want, _ := chaosCompute(context.Background(), in[i], engine.DeriveSeed(3, chaosKey(in[i])))
			if r != want {
				t.Errorf("spec %d wrong: %+v", i, r)
			}
			healthy++
		}
	}
	if healthy != 26 {
		t.Errorf("%d healthy results, want 26", healthy)
	}
	waitNoLeak(t, before)
}
