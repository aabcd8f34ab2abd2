package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"suit/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainNow(t, svc)
	})
	return svc, ts
}

func postSpec(t *testing.T, ts *httptest.Server, body string) (*http.Response, jobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, v
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return resp
}

// viewOf shows the result exactly when it shows the job done, even
// while the job finishes concurrently. POST relies on this: a new job
// whose points are all engine-memo hits can be done before its response
// is rendered, and clients take a done view's result as final.
func TestViewOfResultExactlyWhenDone(t *testing.T) {
	for i := 0; i < 100; i++ {
		j := newJob("j", Spec{}, 1)
		res := &Result{ID: "j"}
		go j.finish(StateDone, res, "")
		for {
			v := viewOf(j, true)
			if (v.State == StateDone) != (v.Rslt != nil) {
				t.Fatalf("view in state %s has result %v", v.State, v.Rslt != nil)
			}
			if v.State == StateDone {
				break
			}
		}
	}
}

func TestHTTPSubmitLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	spec, _ := json.Marshal(tinySpec(2, 1))
	resp, created := postSpec(t, ts, string(spec))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status = %d, want 201", resp.StatusCode)
	}
	if created.ID == "" || created.State != StateQueued || created.Total != 2 {
		t.Fatalf("created view = %+v", created)
	}

	var view jobView
	deadline := time.Now().Add(120 * time.Second)
	for {
		if r := getJSON(t, ts, "/v1/sweeps/"+created.ID, &view); r.StatusCode != http.StatusOK {
			t.Fatalf("GET status = %d", r.StatusCode)
		}
		if view.State == StateDone || view.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.State != StateDone || view.Rslt == nil || len(view.Rslt.Points) != 2 {
		t.Fatalf("final view = %+v", view)
	}

	// The duplicate POST is the content-addressed hit: 200, same ID,
	// result inline, no new execution.
	resp2, dup := postSpec(t, ts, string(spec))
	if resp2.StatusCode != http.StatusOK || dup.ID != created.ID || dup.Rslt == nil {
		t.Fatalf("duplicate POST: status %d, view %+v", resp2.StatusCode, dup)
	}

	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	getJSON(t, ts, "/v1/sweeps", &list)
	if len(list.Jobs) != 1 {
		t.Fatalf("list has %d jobs, want 1", len(list.Jobs))
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		"{not json",
		`{"chip":"Z"}`,
		`{"unknown_field":1}`,
		`{"offset_mv":55}`,
	} {
		resp, _ := postSpec(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts, "/v1/sweeps/deadbeef", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/v1/sweeps/deadbeef/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPSingleFlight: concurrent identical POSTs over real HTTP get
// one 201 and N-1 200s, all naming the same job (run with -race).
func TestHTTPSingleFlight(t *testing.T) {
	release := make(chan struct{})
	cfg := Config{}
	cfg.runJob = func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return core.Outcome{}, ctx.Err()
		}
		return core.RunJob(ctx, sc, seed)
	}
	svc, ts := newTestServer(t, cfg)

	spec, _ := json.Marshal(tinySpec(1, 1))
	const callers = 8
	statuses := make([]int, callers)
	ids := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(string(spec)))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var v jobView
			json.NewDecoder(resp.Body).Decode(&v)
			statuses[i] = resp.StatusCode
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	close(release)

	var created, coalesced int
	for i := 0; i < callers; i++ {
		switch statuses[i] {
		case http.StatusCreated:
			created++
		case http.StatusOK:
			coalesced++
		default:
			t.Fatalf("caller %d: status %d", i, statuses[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("caller %d got job %s, caller 0 got %s", i, ids[i], ids[0])
		}
	}
	if created != 1 || coalesced != callers-1 {
		t.Fatalf("created=%d coalesced=%d, want 1 and %d", created, coalesced, callers-1)
	}
	if hits := svc.dedupHits.Load(); hits != callers-1 {
		t.Errorf("dedup hits = %d, want %d", hits, callers-1)
	}
}

func TestHTTPBackpressure(t *testing.T) {
	release := make(chan struct{})
	cfg := Config{ExecJobs: 1, QueueDepth: 1}
	cfg.runJob = func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return core.Outcome{}, ctx.Err()
		}
		return core.RunJob(ctx, sc, seed)
	}
	svc, ts := newTestServer(t, cfg)
	defer close(release)

	marshal := func(s Spec) string { b, _ := json.Marshal(s); return string(b) }
	resp, a := postSpec(t, ts, marshal(tinySpec(1, 1)))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("A: status %d", resp.StatusCode)
	}
	jobA, _ := svc.Job(a.ID)
	for i := 0; jobA.State() != StateRunning; i++ {
		if i > 5000 {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postSpec(t, ts, marshal(tinySpec(1, 2))); resp.StatusCode != http.StatusCreated {
		t.Fatalf("B: status %d", resp.StatusCode)
	}
	resp, _ = postSpec(t, ts, marshal(tinySpec(1, 3)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("C: status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After header = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
}

func TestHTTPDraining(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	drainNow(t, svc)
	resp, _ := postSpec(t, ts, `{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining: status %d, want 503", resp.StatusCode)
	}
	// Liveness and readiness split: a draining daemon is alive (killing
	// it would defeat the graceful drain) but not ready for new work.
	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200 (pure liveness)", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPReadyz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var body struct {
		Status string `json:"status"`
	}
	resp := getJSON(t, ts, "/readyz", &body)
	if resp.StatusCode != http.StatusOK || body.Status != "ready" {
		t.Errorf("readyz: %d %q, want 200 ready", resp.StatusCode, body.Status)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var body struct {
		Status string `json:"status"`
	}
	resp := getJSON(t, ts, "/healthz", &body)
	if resp.StatusCode != http.StatusOK || body.Status != "ok" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body.Status)
	}
}

// TestHTTPEventsStream: the SSE endpoint replays the current snapshot,
// streams transitions, and closes after the terminal event.
func TestHTTPEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec, _ := json.Marshal(tinySpec(2, 1))
	_, created := postSpec(t, ts, string(spec))

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // server closes the stream at the terminal event
	if err != nil {
		t.Fatal(err)
	}
	stream := string(raw)
	if !strings.Contains(stream, "event: done\n") {
		t.Fatalf("stream has no terminal done event:\n%s", stream)
	}
	last := ""
	for _, line := range strings.Split(stream, "\n") {
		if strings.HasPrefix(line, "data: ") {
			last = strings.TrimPrefix(line, "data: ")
		}
	}
	var ev Event
	if err := json.Unmarshal([]byte(last), &ev); err != nil {
		t.Fatalf("last data line %q: %v", last, err)
	}
	if ev.State != StateDone || ev.Done != 2 || ev.Total != 2 {
		t.Errorf("terminal event = %+v", ev)
	}
}
