package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRemoteHookHandledSkipsLocal: a job the remote tier handles never
// reaches the local run function, and Stats.Remote counts it (still
// inside Ran).
func TestRemoteHookHandledSkipsLocal(t *testing.T) {
	var localRuns atomic.Int64
	eng := New(specKey, func(ctx context.Context, spec testSpec, seed uint64) (int, error) {
		localRuns.Add(1)
		return spec.ID * 2, nil
	}, Options{Workers: 2})
	var remoteRuns atomic.Int64
	eng.SetRemote(func(ctx context.Context, spec testSpec, key string, seed uint64) (int, bool, error) {
		if want := DeriveSeed(0, key); seed != want {
			t.Errorf("remote hook got seed %d, want the derived %d", seed, want)
		}
		remoteRuns.Add(1)
		return spec.ID * 2, true, nil
	})

	specs := []testSpec{{ID: 1}, {ID: 2}, {ID: 3}}
	got, err := eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if got[i] != s.ID*2 {
			t.Errorf("result[%d] = %d, want %d", i, got[i], s.ID*2)
		}
	}
	if localRuns.Load() != 0 {
		t.Errorf("local run function ran %d times, want 0", localRuns.Load())
	}
	st := eng.Stats()
	if st.Remote != 3 || st.Ran != 3 {
		t.Errorf("stats: Remote=%d Ran=%d, want 3/3", st.Remote, st.Ran)
	}
	if remoteRuns.Load() != 3 {
		t.Errorf("remote hook ran %d times, want 3", remoteRuns.Load())
	}
}

// TestRemoteHookDeclinedFallsBackLocal: handled=false must run the job
// locally — the engine with a declining remote tier behaves exactly
// like an engine without one.
func TestRemoteHookDeclinedFallsBackLocal(t *testing.T) {
	var localRuns atomic.Int64
	eng := New(specKey, func(ctx context.Context, spec testSpec, seed uint64) (int, error) {
		localRuns.Add(1)
		return spec.ID + 7, nil
	}, Options{Workers: 2})
	eng.SetRemote(func(ctx context.Context, spec testSpec, key string, seed uint64) (int, bool, error) {
		return 0, false, nil
	})

	got, err := eng.Run(context.Background(), []testSpec{{ID: 4}, {ID: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 11 || got[1] != 12 {
		t.Errorf("results = %v, want [11 12]", got)
	}
	if localRuns.Load() != 2 {
		t.Errorf("local runs = %d, want 2", localRuns.Load())
	}
	if st := eng.Stats(); st.Remote != 0 {
		t.Errorf("Stats.Remote = %d, want 0", st.Remote)
	}
}

// TestRemoteHookErrorFailsJob: handled=true with an error is a job
// failure like any local one, reported by fingerprint.
func TestRemoteHookErrorFailsJob(t *testing.T) {
	eng := New(specKey, func(ctx context.Context, spec testSpec, seed uint64) (int, error) {
		t.Error("local run must not execute for a handled job")
		return 0, nil
	}, Options{Workers: 1})
	sentinel := errors.New("remote tier exploded")
	eng.SetRemote(func(ctx context.Context, spec testSpec, key string, seed uint64) (int, bool, error) {
		return 0, true, sentinel
	})

	_, err := eng.Run(context.Background(), []testSpec{{ID: 1}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the remote sentinel", err)
	}
	if !strings.Contains(err.Error(), specKey(testSpec{ID: 1})) {
		t.Errorf("error text %q does not name the failed fingerprint", err)
	}
	if st := eng.Stats(); st.Failed != 1 || st.Remote != 0 {
		t.Errorf("stats = %+v, want 1 failed and 0 remote", st)
	}
}
