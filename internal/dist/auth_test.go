package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"suit/internal/core"
	"suit/internal/engine"
)

// TestWorkerTokenRequired: with a WorkerToken configured, every
// /v1/work endpoint refuses requests without the matching bearer token.
// The result digest only proves transport integrity, so this token is
// what keeps an exposed daemon from accepting forged outcomes.
func TestWorkerTokenRequired(t *testing.T) {
	d := newTestDispatcher(t, Config{WorkerToken: "s3cret"})
	mux := http.NewServeMux()
	d.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	claimBody, _ := json.Marshal(ClaimRequest{WorkerID: "intruder", Revision: engine.ResultsRevision})
	post := func(path, token string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for _, path := range []string{"/v1/work/claim", "/v1/work/l1/heartbeat", "/v1/work/l1/result"} {
		if resp := post(path, "", claimBody); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s with no token: status %d, want 401", path, resp.StatusCode)
		} else if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("%s 401 carried no WWW-Authenticate challenge", path)
		}
		if resp := post(path, "wrong", claimBody); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s with a wrong token: status %d, want 401", path, resp.StatusCode)
		}
	}

	// The right token passes through to the real handler: an empty
	// queue answers an authorized claim with 204.
	if resp := post("/v1/work/claim", "s3cret", claimBody); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("authorized claim: status %d, want 204", resp.StatusCode)
	}
	// Unauthorized probes must not have registered as live workers.
	if st := d.Stats(); st.LiveWorkers != 1 {
		t.Errorf("LiveWorkers = %d, want only the authorized claimer", st.LiveWorkers)
	}
}

// TestWorkerTokenEndToEnd: a worker configured with the token completes
// a unit against a token-requiring daemon; one without it never gets a
// claim through.
func TestWorkerTokenEndToEnd(t *testing.T) {
	d := newTestDispatcher(t, Config{WorkerToken: "s3cret"})
	mux := http.NewServeMux()
	d.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	sc := testScenario(t, 40)
	run := func(context.Context, core.Scenario, uint64) (core.Outcome, error) {
		return core.Outcome{Efficiency: 3}, nil
	}

	stopDenied := runWorker(t, WorkerConfig{
		BaseURL: srv.URL, ID: "no-token", PollInterval: 5 * time.Millisecond, runFn: run,
	})
	stopAllowed := runWorker(t, WorkerConfig{
		BaseURL: srv.URL, ID: "with-token", Token: "s3cret", PollInterval: 5 * time.Millisecond, runFn: run,
	})
	defer stopDenied()
	defer stopAllowed()
	waitLiveWorkers(t, d, 1)

	v := waitVerdict(t, startExecute(d, sc))
	if !v.handled || v.err != nil || v.out.Efficiency != 3 {
		t.Fatalf("verdict %+v, want the authorized worker's outcome", v)
	}
}

// TestClaimRevisionMismatchRefused: a claim from a worker built at
// another results revision, or before claims carried one, gets 409
// naming both revisions and never registers the worker as live, so no
// offer is parked for it; a current worker then completes a unit.
func TestClaimRevisionMismatchRefused(t *testing.T) {
	d := newTestDispatcher(t, Config{})
	mux := http.NewServeMux()
	d.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	for _, c := range []struct {
		rev  int
		body string
	}{{-1, `{"worker_id":"skewed","revision":-1}`}, {0, `{"worker_id":"pre-revision"}`}} {
		resp, err := http.Post(srv.URL+"/v1/work/claim", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := fmt.Sprintf("worker results revision %d, daemon results revision %d", c.rev, engine.ResultsRevision)
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(msg), want) {
			t.Errorf("claim %s: status %d %q, want 409 naming %q", c.body, resp.StatusCode, msg, want)
		}
	}
	if st := d.Stats(); st.RevisionRefusals != 2 || st.LiveWorkers != 0 {
		t.Fatalf("RevisionRefusals = %d, LiveWorkers = %d, want 2 and 0", st.RevisionRefusals, st.LiveWorkers)
	}

	stop := runWorker(t, WorkerConfig{BaseURL: srv.URL, ID: "current", PollInterval: 5 * time.Millisecond,
		runFn: func(context.Context, core.Scenario, uint64) (core.Outcome, error) {
			return core.Outcome{Efficiency: 3}, nil
		}})
	defer stop()
	waitLiveWorkers(t, d, 1)
	if v := waitVerdict(t, startExecute(d, testScenario(t, 41))); !v.handled || v.err != nil || v.out.Efficiency != 3 {
		t.Fatalf("verdict %+v, want the current worker's outcome", v)
	}
}
