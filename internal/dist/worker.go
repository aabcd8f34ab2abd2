package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"suit/internal/core"
	"suit/internal/engine"
)

// WorkerConfig configures a pull-based worker. Only BaseURL and ID are
// required; the zero value of every other field means "use the
// default".
type WorkerConfig struct {
	// BaseURL of the suitd daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// ID names this worker to the dispatcher (quarantine is per-ID).
	ID string
	// Token is sent as "Authorization: Bearer <token>" on every request;
	// required when the daemon runs with a worker token, ignored by an
	// open daemon. Default "".
	Token string
	// Slots is how many units run concurrently. Default 1.
	Slots int
	// PollInterval was the pause after an empty claim. The daemon now
	// holds a claim until work is ready, and the worker claims again at
	// once after an empty one.
	//
	// Deprecated: not read; kept only because bench/served.go sets it.
	PollInterval time.Duration
	// ResultAttempts bounds result-post retries on transport and 5xx
	// failures (a 4xx is final). Default 4.
	ResultAttempts int
	// RetryBackoff is the base of the deterministic backoff after a
	// failed claim (keyed by the worker ID) and between result-post
	// retries (keyed by the fingerprint). Default 100ms.
	RetryBackoff time.Duration
	// Client overrides the HTTP client — the chaos tests inject a
	// fault-laden transport here. Default: http.Client with a 30s
	// timeout.
	Client *http.Client

	// runFn overrides the simulation in tests. Default core.RunJob.
	runFn func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.ResultAttempts <= 0 {
		c.ResultAttempts = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.runFn == nil {
		c.runFn = core.RunJob
	}
	return c
}

// WorkerStats counts one worker's lifetime activity.
type WorkerStats struct {
	Claims        int64 // granted leases
	EmptyPolls    int64 // 204 responses: a claim held to its bound without work
	Completed     int64 // accepted or deduped results
	Errors        int64 // error results posted (mismatch, failed run)
	LeaseLost     int64 // heartbeats answered 410 (run cancelled)
	PostFailures  int64 // result posts that failed an attempt
	ClaimFailures int64 // claim requests that failed in transport
}

// Worker pulls leased work units from a suitd dispatcher, executes them
// through the same deterministic simulation a local run would use, and
// posts digest-protected results back. It is crash-safe by design: a
// worker killed mid-unit simply stops heartbeating and the dispatcher
// reassigns the lease; a worker that delivers twice is deduped by
// digest. Everything it computes is a pure function of the work unit,
// so any number of workers — or none — produce byte-identical stores.
type Worker struct {
	cfg WorkerConfig

	mu    sync.Mutex
	stats WorkerStats
}

// NewWorker builds a worker; call Run to start it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("dist: worker needs a BaseURL")
	}
	if cfg.ID == "" {
		return nil, errors.New("dist: worker needs an ID")
	}
	return &Worker{cfg: cfg.withDefaults()}, nil
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Run claims, executes and reports until ctx is cancelled, then drains
// its slots and returns ctx's error.
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.slotLoop(ctx, slot)
		}(i)
	}
	wg.Wait()
	return ctx.Err()
}

// slotLoop claims and executes units one at a time. The daemon holds a
// claim until work is ready, so an empty answer is followed by the next
// claim at once; only a failed claim (transport error, unexpected
// status such as 503 from a draining daemon, or a 204 the daemon did not
// hold) backs off, by the deterministic schedule keyed by the worker ID.
func (w *Worker) slotLoop(ctx context.Context, slot int) {
	failures := 0
	for ctx.Err() == nil {
		grant, ok, err := w.claim(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.count(func(s *WorkerStats) { s.ClaimFailures++ })
			if !sleepCtx(ctx, engine.RetryDelay(w.cfg.RetryBackoff, w.cfg.ID, failures)) {
				return
			}
			failures++
			continue
		}
		failures = 0
		if !ok {
			w.count(func(s *WorkerStats) { s.EmptyPolls++ })
			continue
		}
		w.count(func(s *WorkerStats) { s.Claims++ })
		w.execute(ctx, grant)
	}
}

// claim asks for one unit. ok=false with a nil error is an empty claim.
func (w *Worker) claim(ctx context.Context) (Grant, bool, error) {
	body, _ := json.Marshal(ClaimRequest{WorkerID: w.cfg.ID, Revision: engine.ResultsRevision})
	resp, err := w.post(ctx, w.cfg.BaseURL+"/v1/work/claim", body)
	if err != nil {
		return Grant{}, false, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusNoContent:
		if resp.Header.Get(claimHeldHeader) == "" {
			// A daemon that does not hold claims: claiming again at once
			// would loop, so this counts as a failed claim.
			return Grant{}, false, errors.New("dist: claim: the daemon answered 204 without holding the claim; upgrade it")
		}
		return Grant{}, false, nil
	case http.StatusOK:
		var g Grant
		if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
			return Grant{}, false, fmt.Errorf("dist: bad grant: %w", err)
		}
		if g.LeaseID == "" || g.Unit.Fingerprint == "" {
			return Grant{}, false, errors.New("dist: grant missing lease or unit")
		}
		return g, true, nil
	default:
		return Grant{}, false, fmt.Errorf("dist: claim: unexpected status %d", resp.StatusCode)
	}
}

// execute runs one granted unit under its lease: reconstruct and verify
// the scenario, heartbeat in the background, simulate, and post the
// digest-protected result.
func (w *Worker) execute(ctx context.Context, g Grant) {
	unit := g.Unit
	sc, err := unit.Scenario.Scenario()
	if err == nil {
		if got := sc.Fingerprint(); got != unit.Fingerprint {
			err = fmt.Errorf("reconstructed fingerprint %q != unit %q (registry skew?)", got, unit.Fingerprint)
		}
	}
	if err != nil {
		// Refuse rather than mis-simulate: an error result releases the
		// lease immediately so another worker (or the local fallback)
		// takes over without waiting for expiry.
		w.count(func(s *WorkerStats) { s.Errors++ })
		w.postResult(ctx, g.LeaseID, ResultMsg{Fingerprint: unit.Fingerprint, Error: err.Error()})
		return
	}

	// Heartbeat until the run finishes; a 410 cancels the run — the
	// lease was reassigned, so finishing here would be wasted work.
	runCtx, cancelRun := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	ttl := time.Duration(g.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(runCtx, g.LeaseID, ttl, cancelRun)
	}()

	out, runErr := w.cfg.runFn(runCtx, sc, unit.Seed)
	cancelRun()
	<-hbDone

	if ctx.Err() != nil && runErr != nil {
		return // shutting down; let the lease expire
	}
	if runErr != nil {
		w.count(func(s *WorkerStats) { s.Errors++ })
		w.postResult(ctx, g.LeaseID, ResultMsg{Fingerprint: unit.Fingerprint, Error: runErr.Error()})
		return
	}
	raw, err := json.Marshal(out)
	if err != nil {
		w.count(func(s *WorkerStats) { s.Errors++ })
		w.postResult(ctx, g.LeaseID, ResultMsg{Fingerprint: unit.Fingerprint, Error: "marshal outcome: " + err.Error()})
		return
	}
	msg := ResultMsg{
		Fingerprint: unit.Fingerprint,
		Outcome:     raw,
		Digest:      engine.ResultDigest(unit.Fingerprint, raw),
	}
	if w.postResult(ctx, g.LeaseID, msg) {
		w.count(func(s *WorkerStats) { s.Completed++ })
	}
}

// heartbeatLoop extends the lease at TTL/3 until ctx is cancelled; a
// gone lease (410) cancels the run via lost.
func (w *Worker) heartbeatLoop(ctx context.Context, leaseID string, ttl time.Duration, lost context.CancelFunc) {
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	for {
		if !sleepCtx(ctx, interval) {
			return
		}
		body := []byte("{}")
		resp, err := w.post(ctx, w.cfg.BaseURL+"/v1/work/"+leaseID+"/heartbeat", body)
		if err != nil {
			continue // transient; the next beat may land before expiry
		}
		code := resp.StatusCode
		drainClose(resp)
		if code == http.StatusGone {
			w.count(func(s *WorkerStats) { s.LeaseLost++ })
			lost()
			return
		}
	}
}

// postResult delivers a result with bounded retries: transport errors
// and 5xx responses retry under the deterministic fingerprint-derived
// backoff (the dispatcher dedups re-deliveries by digest), any other
// status is final. Reports whether the result was accepted or deduped.
func (w *Worker) postResult(ctx context.Context, leaseID string, msg ResultMsg) bool {
	body, err := json.Marshal(msg)
	if err != nil {
		return false
	}
	url := w.cfg.BaseURL + "/v1/work/" + leaseID + "/result"
	for attempt := 0; attempt < w.cfg.ResultAttempts; attempt++ {
		if attempt > 0 {
			if !sleepCtx(ctx, engine.RetryDelay(w.cfg.RetryBackoff, msg.Fingerprint, attempt-1)) {
				return false
			}
		}
		resp, err := w.post(ctx, url, body)
		if err != nil {
			w.count(func(s *WorkerStats) { s.PostFailures++ })
			continue
		}
		code := resp.StatusCode
		var ack ResultAck
		decErr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ack)
		drainClose(resp)
		switch {
		case code == http.StatusAccepted, code == http.StatusOK && decErr == nil && (ack.Status == "duplicate" || ack.Status == "retrying"):
			return ack.Status != "retrying"
		case code >= 500:
			w.count(func(s *WorkerStats) { s.PostFailures++ })
			continue // server-side trouble; the dispatcher dedups retries
		default:
			// 4xx is final: gone lease, conflict, or a digest problem the
			// dispatcher already charged against this lease.
			return false
		}
	}
	return false
}

func (w *Worker) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.Token)
	}
	// GetBody lets fault-injecting transports replay the request for
	// duplicated deliveries (and net/http use it on redirects/retries).
	req.GetBody = func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(body)), nil
	}
	return w.cfg.Client.Do(req)
}

func (w *Worker) count(f func(*WorkerStats)) {
	w.mu.Lock()
	f(&w.stats)
	w.mu.Unlock()
}

// sleepCtx pauses for d, returning false if ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d) //lint:allow determinism heartbeat and backoff pacing; unit results are content-addressed and timing-independent
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// drainClose finishes a response body so the connection can be reused.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	_ = resp.Body.Close()
}
