package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"suit/internal/core"
	"suit/internal/dist"
)

// TestSubmitTooLargeIs413: a spec body over the limit gets 413 with a
// distinct message, not a generic 400.
func TestSubmitTooLargeIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := `{"benches":["VLC"],"pad":"` + strings.Repeat("x", maxSpecBytes+1024) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "exceeds") || !strings.Contains(body.Error, "limit") {
		t.Errorf("error %q does not say the body was too large", body.Error)
	}
}

// TestEventsClientDisconnect: cancelling an SSE client's request
// mid-stream must return the handler promptly, remove the
// subscription, and leak no goroutines.
func TestEventsClientDisconnect(t *testing.T) {
	release := make(chan struct{})
	svc, ts := newTestServer(t, Config{
		// Hold the job mid-run so the SSE stream stays open until the
		// client disconnects.
		runJob: func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return core.RunJob(ctx, sc, seed)
		},
	})
	defer close(release)
	job, _, err := svc.Submit(tinySpec(1, 1))
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sweeps/"+job.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Read the first event so the stream is demonstrably live, then
		// disconnect mid-stream.
		buf := make([]byte, 1)
		if _, err := resp.Body.Read(buf); err != nil {
			t.Fatalf("stream %d never produced data: %v", i, err)
		}
		cancel()
		resp.Body.Close()
	}

	// The handler returns and unsubscribes; subscribers drop back to
	// zero and the goroutine count settles to where it started.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		job.mu.Lock()
		subs := len(job.subs)
		job.mu.Unlock()
		if subs == 0 && runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	job.mu.Lock()
	subs := len(job.subs)
	job.mu.Unlock()
	t.Fatalf("after disconnects: %d subscriptions, %d goroutines (started with %d) — handler leaked",
		subs, runtime.NumGoroutine(), before)
}

// TestDistributedServiceByteIdentical is the tentpole's service-level
// proof: a daemon whose sweep is executed by a pull worker over HTTP
// stores a result byte-identical to a daemon that ran everything
// locally.
func TestDistributedServiceByteIdentical(t *testing.T) {
	spec := tinySpec(3, 7)

	// Reference: a plain local daemon.
	localSvc, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, localSvc)
	localJob, _, err := localSvc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, localJob); snap.State != StateDone {
		t.Fatalf("local job: %s (%s)", snap.State, snap.Error)
	}
	wantRaw, err := json.Marshal(localJob.result)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: a daemon with a worker pulling over its real HTTP
	// handler. Short lease TTL keeps the test fast if anything goes
	// sideways.
	distSvc, ts := newTestServer(t, Config{
		Dist: dist.Config{LeaseTTL: time.Second},
	})
	w, err := dist.NewWorker(dist.WorkerConfig{
		BaseURL:      ts.URL,
		ID:           "svc-test-worker",
		Slots:        2,
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(wctx) //nolint:errcheck
	}()
	defer func() {
		wcancel()
		<-workerDone
	}()
	deadline := time.Now().Add(10 * time.Second)
	for distSvc.DistStats().LiveWorkers == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if distSvc.DistStats().LiveWorkers == 0 {
		t.Fatal("worker never registered with the daemon")
	}

	distJob, _, err := distSvc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, distJob); snap.State != StateDone {
		t.Fatalf("distributed job: %s (%s)", snap.State, snap.Error)
	}
	gotRaw, err := json.Marshal(distJob.result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Error("distributed result differs from the local daemon's bytes")
	}
	st := distSvc.DistStats()
	t.Logf("dispatcher: %+v, worker: %+v", st, w.Stats())
	if st.Completed == 0 {
		t.Error("no unit completed remotely — the worker path was not exercised")
	}
	if st.Conflicts != 0 {
		t.Errorf("%d conflicting results — determinism violation", st.Conflicts)
	}
	// The dist metrics are exposed on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"suitd_dist_completed_total", "suitd_dist_live_workers", "suitd_engine_remote_total"} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}
}
