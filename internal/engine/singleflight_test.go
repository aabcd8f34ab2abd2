package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleFlightCoalesces: N concurrent Run calls over the same spec
// must trigger exactly one execution; everyone gets the same result.
func TestSingleFlightCoalesces(t *testing.T) {
	var executions atomic.Int64
	release := make(chan struct{})
	eng := New(
		func(s string) string { return s },
		func(ctx context.Context, spec string, seed uint64) (string, error) {
			executions.Add(1)
			<-release // hold the flight open until every caller has arrived
			return "result:" + spec, nil
		},
		Options{Workers: 2},
	)

	const callers = 8
	var wg sync.WaitGroup
	results := make([]string, callers)
	errs := make([]error, callers)
	started := make(chan struct{}, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			out, err := eng.Run(context.Background(), []string{"spec-a"})
			errs[i] = err
			if len(out) == 1 {
				results[i] = out[0]
			}
		}(i)
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	// Give every Run time to reach the flight wait before releasing the
	// leader; correctness does not depend on this, only test strength.
	time.Sleep(50 * time.Millisecond)
	if got := eng.Inflight(); got != 1 {
		t.Errorf("Inflight mid-execution = %d, want 1", got)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("run function executed %d times, want exactly 1", got)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != "result:spec-a" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
	}
	st := eng.Stats()
	if st.Ran != 1 {
		t.Errorf("Stats.Ran = %d, want 1", st.Ran)
	}
	if st.Coalesced != callers-1 {
		t.Errorf("Stats.Coalesced = %d, want %d", st.Coalesced, callers-1)
	}
	if got := eng.Inflight(); got != 0 {
		t.Errorf("Inflight after completion = %d, want 0", got)
	}
}

// TestSingleFlightLeaderFailureNotShared: a follower must not inherit
// the leader's failure — it re-executes under its own budget.
func TestSingleFlightLeaderFailureNotShared(t *testing.T) {
	var executions atomic.Int64
	firstArrived := make(chan struct{})
	failFirst := make(chan struct{})
	eng := New(
		func(s string) string { return s },
		func(ctx context.Context, spec string, seed uint64) (string, error) {
			n := executions.Add(1)
			if n == 1 {
				close(firstArrived)
				<-failFirst
				return "", fmt.Errorf("injected leader failure")
			}
			return "ok:" + spec, nil
		},
		Options{Workers: 1},
	)

	leaderErr := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), []string{"spec-b"})
		leaderErr <- err
	}()
	<-firstArrived

	followerDone := make(chan struct{})
	var followerOut []string
	var followerErr error
	go func() {
		defer close(followerDone)
		followerOut, followerErr = eng.Run(context.Background(), []string{"spec-b"})
	}()
	// The follower is now (or soon will be) waiting on the leader's
	// flight; fail the leader and watch the follower recover.
	time.Sleep(20 * time.Millisecond)
	close(failFirst)

	if err := <-leaderErr; err == nil {
		t.Fatal("leader Run should have failed")
	}
	<-followerDone
	if followerErr != nil {
		t.Fatalf("follower Run failed: %v", followerErr)
	}
	if len(followerOut) != 1 || followerOut[0] != "ok:spec-b" {
		t.Fatalf("follower got %v", followerOut)
	}
	if got := executions.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (failed leader + recovering follower)", got)
	}
}

// TestSingleFlightFollowerCancellation: a follower whose context is
// cancelled stops waiting on a stuck leader promptly.
func TestSingleFlightFollowerCancellation(t *testing.T) {
	arrived := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	eng := New(
		func(s string) string { return s },
		func(ctx context.Context, spec string, seed uint64) (string, error) {
			close(arrived)
			<-release
			return spec, nil
		},
		Options{Workers: 1},
	)
	go eng.Run(context.Background(), []string{"spec-c"})
	<-arrived

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, []string{"spec-c"})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not return")
	}
}

// TestRunCheckpointedPerCallJournal: two sweeps sharing one engine
// journal into separate checkpoints, and a coalesced completion is
// recorded in the follower's journal too.
func TestRunCheckpointedPerCallJournal(t *testing.T) {
	dir := t.TempDir()
	cpA, err := OpenCheckpoint(dir+"/a.journal", "sweep-a", false)
	if err != nil {
		t.Fatal(err)
	}
	defer cpA.Close()
	cpB, err := OpenCheckpoint(dir+"/b.journal", "sweep-b", false)
	if err != nil {
		t.Fatal(err)
	}
	defer cpB.Close()

	eng := New(
		func(s string) string { return s },
		func(ctx context.Context, spec string, seed uint64) (string, error) {
			return "r:" + spec, nil
		},
		Options{Workers: 2},
	)
	if _, err := eng.RunCheckpointed(context.Background(), []string{"x", "y"}, cpA); err != nil {
		t.Fatal(err)
	}
	// Second sweep overlaps on "y" (memo hit) and adds "z".
	if _, err := eng.RunCheckpointed(context.Background(), []string{"y", "z"}, cpB); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		cp   *Checkpoint
		keys []string
	}{
		{cpA, []string{"x", "y"}},
		{cpB, []string{"y", "z"}},
	} {
		for _, k := range want.keys {
			if !want.cp.Done(k) {
				t.Errorf("checkpoint %s missing key %q", want.cp.path, k)
			}
		}
		if got := want.cp.Completed(); got != 2 {
			t.Errorf("checkpoint %s Completed = %d, want 2", want.cp.path, got)
		}
	}
	if cpA.Done("z") {
		t.Error("sweep A's journal recorded sweep B's job")
	}
}
