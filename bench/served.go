package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"suit/internal/core"
	"suit/internal/dist"
	"suit/internal/engine"
	"suit/internal/service"
	"suit/internal/units"
)

const (
	// digestJobs is how many of the first fresh specs every run
	// completes and digests, whatever its length.
	digestJobs = 16
	// checkedJobs bounds how many of served-dist's fresh jobs are
	// recomputed locally for the byte-identity check.
	checkedJobs = 64
	// workerPoll is the worker's pause after an empty claim: a tenth of
	// suitworker's default, so that lease round trips stay visible next
	// to the idle wait and a job's pickup is not a race against a
	// quarter-second timer.
	workerPoll = 25 * time.Millisecond
	// freshShare and overlapShare split served's traffic; the rest are
	// exact repeats of completed fresh specs.
	freshShare   = 0.70
	overlapShare = 0.15
	// Request headers that carry a client span to the server-side
	// middleware in the traced run.
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Req"
)

// pointsPerJob is the scenario count of every served job: one grid
// setting over the default workload mix.
var pointsPerJob = len(core.SweepBenchNames)

// served is a workload that drives the suitd service over loopback
// HTTP: plain for "served", remote-only with one pull worker for
// "served-dist".
type served struct {
	e      env
	name   string
	remote bool
	grid   []service.ParamSpec

	dir       string
	svc       *service.Service
	srv       *http.Server
	serveDone chan error
	baseURL   string

	worker     *dist.Worker
	leases     *leaseClock
	stopWorker context.CancelFunc
	workerDone chan error
}

func startServed(e env) (instance, error)     { return startService(e, "served", false) }
func startServedDist(e env) (instance, error) { return startService(e, "served-dist", true) }

// startService brings the service up on a fresh state directory behind a
// loopback listener, and for served-dist registers one worker; it
// returns once /readyz answers 200 and the worker has polled.
func startService(e env, name string, remote bool) (s *served, err error) {
	s = &served{e: e, name: name, remote: remote}
	chip, err := core.ChipByName("C")
	if err != nil {
		return nil, err
	}
	for _, p := range core.SweepGrid(chip) {
		s.grid = append(s.grid, service.ParamSpec{
			DeadlineUS:     float64(p.Deadline) / float64(units.Microseconds(1)),
			TimeSpanUS:     float64(p.TimeSpan) / float64(units.Microseconds(1)),
			MaxExceptions:  p.MaxExceptions,
			DeadlineFactor: p.DeadlineFactor,
		})
	}
	if s.dir, err = os.MkdirTemp(e.tmpDir, name+"-"); err != nil {
		return nil, err
	}
	cfg := service.Config{StateDir: s.dir, EngineWorkers: 1}
	if remote {
		// Offer a job's points to the worker together: with one engine
		// worker each point would be offered only after the previous
		// result, and whether the worker's next claim found it would be
		// a race decided by microseconds.
		cfg.EngineWorkers = pointsPerJob
		cfg.Dist.RemoteOnly = true
	}
	if s.svc, err = service.New(cfg); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.baseURL = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: traceHandler(e.rec, s.svc.Handler())}
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.srv.Serve(ln) }()
	if err := s.waitReady(); err != nil {
		return nil, err
	}
	if !remote {
		return s, nil
	}
	transport := &http.Transport{MaxConnsPerHost: 1}
	var rt http.RoundTripper = transport
	if e.rec != nil {
		s.leases = &leaseClock{base: transport, rec: e.rec, claimedAt: map[string]time.Time{}}
		rt = s.leases
	}
	if s.worker, err = dist.NewWorker(dist.WorkerConfig{
		BaseURL: s.baseURL, ID: "bench-worker", Slots: 1, PollInterval: workerPoll,
		Client: &http.Client{Transport: rt, Timeout: 30 * time.Second},
	}); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorker = cancel
	s.workerDone = make(chan error, 1)
	go func() { s.workerDone <- s.worker.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); s.svc.DistStats().LiveWorkers == 0; {
		if time.Now().After(deadline) {
			return nil, errors.New("worker did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

func (s *served) waitReady() error {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := hc.Get(s.baseURL + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: /readyz not 200 within 10s (last error %v)", s.name, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the service, stops the worker and the listener, and
// waits for each.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.svc != nil {
		errs = append(errs, s.svc.Drain(ctx))
	}
	if s.stopWorker != nil {
		s.stopWorker()
		if err := <-s.workerDone; !errors.Is(err, context.Canceled) {
			errs = append(errs, err)
		}
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.serveDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// freshSpec is the i-th fresh job of a seed: a one-setting chip C sweep
// over the default mix at 2e6 instructions. served and served-dist draw
// the same sequence, so equal indices are equal jobs.
func (s *served) freshSpec(i int) service.Spec {
	h := engine.DeriveSeed(s.e.seed, "bench/served/"+strconv.Itoa(i))
	instr := uint64(2_000_000)
	if toy {
		instr = 100_000
	}
	return service.Spec{
		Kind: service.KindSweep, Chip: "C", Instructions: instr, Seed: h, Top: 1,
		Params: []service.ParamSpec{s.grid[h%uint64(len(s.grid))]},
	}
}

// op is one client operation.
type op struct {
	kind  string // fresh, overlap, repeat
	index int    // fresh spec index
	spec  service.Spec
}

// doneJob is a completed fresh job, the reference for later overlaps and
// repeats of its spec.
type doneJob struct {
	index  int
	id     string
	result json.RawMessage
	points json.RawMessage
}

// opTimes is one completed operation's client-side timings.
type opTimes struct {
	kind            string
	at              time.Time // when it was submitted
	totalMS, postMS float64
	queueMS, execMS float64
	hasPhases       bool
}

// traffic is the state of the closed-loop client.
type traffic struct {
	s     *served
	res   *result
	start time.Time // the timed phase's; the warm-up runs before it
	until time.Time

	rng       *rand.Rand
	nextFresh int
	done      []doneJob
	times     []opTimes
	points    int
	last      time.Time
}

// next draws the next operation, or ok=false once the run is over: the
// timed phase has passed and the first digestJobs fresh specs are
// issued. served-dist sends only fresh jobs.
func (t *traffic) next() (op, bool) {
	if !time.Now().Before(t.until) && t.nextFresh >= digestJobs {
		return op{}, false
	}
	if !t.s.remote && len(t.done) > 0 {
		u := t.rng.Float64()
		if u >= freshShare {
			ref := t.done[t.rng.IntN(len(t.done))]
			o := op{kind: "repeat", index: ref.index, spec: t.s.freshSpec(ref.index)}
			if u < freshShare+overlapShare {
				o.kind = "overlap"
				o.spec.Top++
			}
			return o, true
		}
	}
	i := t.nextFresh
	t.nextFresh++
	return op{kind: "fresh", index: i, spec: t.s.freshSpec(i)}, true
}

// record keeps the timings of an operation submitted in the timed
// phase; the warm-up's are checked, not timed.
func (t *traffic) record(ot opTimes) {
	if ot.at.Before(t.start) {
		return
	}
	t.times = append(t.times, ot)
	t.points += pointsPerJob
	t.last = time.Now()
}

func (t *traffic) failed(format string, args ...any) {
	t.res.Failed++
	t.res.fail(format, args...)
}

func (t *traffic) lookup(index int) (doneJob, bool) {
	for _, d := range t.done {
		if d.index == index {
			return d, true
		}
	}
	return doneJob{}, false
}

// run is the warm-up and the timed phase: one closed-loop client on a
// single connection, so that a job's latency never includes another
// client's job queued ahead of it.
func (s *served) run(seconds float64) (*result, error) {
	start := time.Now().Add(time.Duration(warmup(seconds) * float64(time.Second)))
	t := &traffic{
		s: s, res: newResult(), start: start,
		until: start.Add(time.Duration(seconds * float64(time.Second))),
		rng:   rand.New(rand.NewPCG(s.e.seed, 0xbe7c4)),
	}
	cl := &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 60 * time.Second},
		base: s.baseURL, rec: s.e.rec,
	}
	defer cl.hc.CloseIdleConnections()
	for {
		o, ok := t.next()
		if !ok {
			break
		}
		s.do(t, cl, o)
	}
	return s.finish(t)
}

// do performs one operation and checks its result.
func (s *served) do(t *traffic, cl *client, o op) {
	t.res.Attempted++
	ot, err := s.exchange(t, cl, o)
	if err != nil {
		t.failed("%s: %s of fresh spec %d: %v", s.name, o.kind, o.index, err)
		return
	}
	t.record(ot)
}

// exchange submits o's spec, follows the job to its result when the
// submission did not already carry one, and checks the result: a fresh
// one becomes the reference for its spec, a repeat must equal it byte
// for byte, an overlap must rank the same points.
func (s *served) exchange(t *traffic, cl *client, o op) (opTimes, error) {
	req := fmt.Sprintf("%s-%d", o.kind, o.index)
	job := cl.rec.open("service.job", req, 0)
	defer job.end()
	t0 := time.Now()
	code, view, err := cl.submit(o.spec, req, job.ID())
	ot := opTimes{kind: o.kind, at: t0, postMS: ms(time.Since(t0))}
	if err != nil || (code != http.StatusCreated && code != http.StatusOK) {
		return ot, fmt.Errorf("POST answered %d: %v", code, err)
	}
	result := view.Result
	if view.State != string(service.StateDone) {
		ph, err := cl.follow(view.ID, req, job.ID(), t0)
		if err != nil {
			return ot, fmt.Errorf("job %s: %w", view.ID, err)
		}
		ot.queueMS, ot.execMS, ot.hasPhases = ph.queueMS, ph.execMS, ph.running
		if result, err = cl.fetch(view.ID, req, job.ID()); err != nil {
			return ot, fmt.Errorf("job %s: %w", view.ID, err)
		}
	}
	ot.totalMS = ms(time.Since(t0))
	var res struct {
		ID     string          `json:"id"`
		Points json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(result, &res); err != nil || res.ID != view.ID || len(res.Points) == 0 {
		return ot, fmt.Errorf("job %s: unusable result (%v)", view.ID, err)
	}
	if o.kind == "fresh" {
		t.done = append(t.done, doneJob{index: o.index, id: view.ID, result: result, points: res.Points})
		return ot, nil
	}
	ref, ok := t.lookup(o.index)
	switch {
	case !ok:
		return ot, fmt.Errorf("job %s: no completed fresh job to check against", view.ID)
	case o.kind == "repeat" && !bytes.Equal(result, ref.result):
		return ot, fmt.Errorf("job %s: result differs from the first completion", view.ID)
	case o.kind == "overlap" && !bytes.Equal(res.Points, ref.points):
		return ot, fmt.Errorf("job %s: points differ from job %s's", view.ID, ref.id)
	}
	return ot, nil
}

func (s *served) finish(t *traffic) (*result, error) {
	r := t.res
	var fresh, hits, overlaps, posts, queue, exec []float64
	for _, ot := range t.times {
		posts = append(posts, ot.postMS)
		switch ot.kind {
		case "fresh":
			fresh = append(fresh, ot.totalMS)
			if ot.hasPhases {
				queue = append(queue, ot.queueMS)
				exec = append(exec, ot.execMS)
			}
		case "repeat":
			hits = append(hits, ot.totalMS)
		case "overlap":
			overlaps = append(overlaps, ot.totalMS)
		}
	}
	elapsed := t.last.Sub(t.start).Seconds()
	r.Metrics["points_per_s"] = float64(t.points) / elapsed
	r.Metrics["job_p50_ms"] = median(fresh)
	r.note("%s: %d jobs in %.2fs (%.1f jobs/s): %d fresh, %d overlap, %d repeat", s.name,
		len(t.times), elapsed, float64(len(t.times))/elapsed, len(fresh), len(overlaps), len(hits))
	jobTail := r.tailNote("job_ms (fresh)", fresh)
	r.tailNote("hit_ms (repeat)", hits)
	r.tailNote("overlap_ms", overlaps)

	// The digest covers the first digestJobs fresh results, which every
	// run completes, in spec order.
	h := sha256.New()
	for i := 0; i < digestJobs; i++ {
		d, ok := t.lookup(i)
		if !ok {
			r.fail("%s: fresh job %d of the digested prefix did not complete", s.name, i)
			continue
		}
		h.Write(d.result)
	}
	r.Digest = hex.EncodeToString(h.Sum(nil))

	if s.remote {
		if err := s.checkAgainstLocal(t); err != nil {
			return nil, err
		}
		ds := s.svc.DistStats()
		if ds.LocalFallbacks != 0 || ds.Conflicts != 0 {
			r.fail("%s: %d local fallbacks and %d conflicts, want 0 and 0", s.name, ds.LocalFallbacks, ds.Conflicts)
		}
	}
	if s.e.rec == nil {
		return r, nil
	}

	L := r.Layers
	st := s.svc.EngineStats()
	L["engine.hit_ratio"] = st.HitRate()
	L["engine.retried"] = float64(st.Retried)
	L["engine.failed"] = float64(st.Failed)
	L["service.post_ms_p50"] = median0(posts)
	L["service.hit_ms_p50"] = median0(hits)
	L["service.queue_wait_ms_p50"] = median0(queue)
	L["service.exec_ms_p50"] = median0(exec)
	L["service.job_ms_tail"] = jobTail
	spans := s.e.rec.snapshot()
	for _, route := range []string{"service.handler.submit", "service.handler.events", "dist.handler.claim", "dist.handler.heartbeat", "dist.handler.result"} {
		var ds []float64
		for _, sp := range spans {
			if sp.Name == route {
				ds = append(ds, float64(sp.End-sp.Start)/1e6)
			}
		}
		L[strings.Replace(route, ".handler.", ".handler_ms.", 1)] = median0(ds)
	}
	files, size, err := dirUsage(s.dir)
	if err != nil {
		return nil, err
	}
	L["service.files_written"] = float64(files)
	L["service.bytes_written"] = float64(size)
	if s.remote {
		l := s.leases.snapshot()
		ws := s.worker.Stats()
		ds := s.svc.DistStats()
		L["dist.claim_ms_p50"] = median0(l.claimMS)
		L["dist.result_ms_p50"] = median0(l.resultMS)
		L["dist.lease_ms_p50"] = median0(l.leaseMS)
		L["dist.idle_ms"] = l.idleMS
		L["dist.claim_yield"] = float64(ws.Claims) / float64(max(ws.Claims+ws.EmptyPolls, 1))
		L["dist.post_retries"] = float64(ws.PostFailures)
		L["dist.local_fallbacks"] = float64(ds.LocalFallbacks)
		L["dist.conflicts"] = float64(ds.Conflicts)
	}
	return r, nil
}

// checkAgainstLocal recomputes the first checkedJobs fresh jobs on a
// plain local service and requires byte-identical results: remote
// execution may change timing, never bytes.
func (s *served) checkAgainstLocal(t *traffic) error {
	dir, err := os.MkdirTemp(s.e.tmpDir, "reference-")
	if err != nil {
		return err
	}
	ref, err := service.New(service.Config{StateDir: dir, EngineWorkers: 1})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ref.Drain(ctx) // every reference job has finished; nothing to lose
	}()
	h := ref.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return w
	}
	for i := 0; i < checkedJobs; i++ {
		d, ok := t.lookup(i)
		if !ok {
			break
		}
		body, err := json.Marshal(s.freshSpec(d.index))
		if err != nil {
			return err
		}
		if w := serve(http.MethodPost, "/v1/sweeps", body); w.Code != http.StatusCreated {
			t.res.fail("%s: reference run of job %s: POST answered %d", s.name, d.id, w.Code)
			continue
		}
		serve(http.MethodGet, "/v1/sweeps/"+d.id+"/events", nil) // returns at the terminal event
		var view jobView
		if err := json.Unmarshal(serve(http.MethodGet, "/v1/sweeps/"+d.id, nil).Body.Bytes(), &view); err != nil {
			return fmt.Errorf("%s: reference status of job %s: %w", s.name, d.id, err)
		}
		if !bytes.Equal(view.Result, d.result) {
			t.res.fail("%s: job %s: remote result differs from the local one", s.name, d.id)
		}
	}
	return nil
}

// median0 is median with 0 for no samples: a per-layer value for a
// path the workload does not take.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (files, size int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += info.Size()
		return nil
	})
	return files, size, err
}

// jobView is the part of the API's job JSON the client reads.
type jobView struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
}

// client is one closed-loop API client.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder
}

// do sends one request inside a span called name, whose id travels in a
// header so the server-side span can name it as parent; the caller ends
// the span once it has read the response.
func (c *client) do(method, path string, body []byte, name, req string, parent int64) (*http.Response, *openSpan, error) {
	sp := c.rec.open(name, req, parent)
	r, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		sp.end()
		return nil, nil, err
	}
	if c.rec != nil {
		r.Header.Set(spanHeader, strconv.FormatInt(sp.ID(), 10))
		r.Header.Set(reqHeader, req)
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		sp.end()
		return nil, nil, err
	}
	return resp, sp, nil
}

// submit POSTs a spec and decodes the job view.
func (c *client) submit(spec service.Spec, req string, parent int64) (int, jobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, jobView{}, err
	}
	resp, sp, err := c.do(http.MethodPost, "/v1/sweeps", body, "service.post", req, parent)
	if err != nil {
		return 0, jobView{}, err
	}
	defer sp.end()
	defer resp.Body.Close()
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v, err
}

// phases is what a client saw of a job on its event stream.
type phases struct {
	running         bool
	queueMS, execMS float64
}

// follow reads the job's event stream to its end, timing the wait for
// the running state and the run itself from the submission at t0.
func (c *client) follow(id, req string, parent int64, t0 time.Time) (phases, error) {
	resp, sp, err := c.do(http.MethodGet, "/v1/sweeps/"+id+"/events", nil, "service.events", req, parent)
	if err != nil {
		return phases{}, err
	}
	defer sp.end()
	defer resp.Body.Close()
	var ph phases
	var runningAt time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		state, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch service.State(state) {
		case service.StateRunning:
			if !ph.running {
				ph.running, runningAt = true, time.Now()
			}
		case service.StateDone:
			if ph.running {
				ph.queueMS, ph.execMS = ms(runningAt.Sub(t0)), ms(time.Since(runningAt))
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			return ph, nil
		case service.StateFailed, service.StateCanceled:
			return ph, fmt.Errorf("job ended %s", state)
		}
	}
	if err := sc.Err(); err != nil {
		return ph, fmt.Errorf("event stream: %w", err)
	}
	return ph, errors.New("event stream ended before the job was done")
}

// fetch GETs a finished job's result.
func (c *client) fetch(id, req string, parent int64) (json.RawMessage, error) {
	resp, sp, err := c.do(http.MethodGet, "/v1/sweeps/"+id, nil, "service.get", req, parent)
	if err != nil {
		return nil, err
	}
	defer sp.end()
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	if resp.StatusCode != http.StatusOK || len(v.Result) == 0 {
		return nil, fmt.Errorf("status answered %d without a result", resp.StatusCode)
	}
	return v.Result, nil
}

// traceHandler wraps the service's handler in the traced run: one span
// per request, named for its route and parented to the client span
// named in the request headers. With tracing off it returns h itself.
func traceHandler(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sp := rec.open(routeSpan(r), r.Header.Get(reqHeader), parent)
		defer sp.end()
		h.ServeHTTP(w, r)
	})
}

// routeSpan names the server-side span of a request by its route.
func routeSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sweeps":
		return "service.handler.submit"
	case strings.HasSuffix(p, "/events"):
		return "service.handler.events"
	case strings.HasPrefix(p, "/v1/sweeps/"):
		return "service.handler.status"
	case p == "/v1/work/claim":
		return "dist.handler.claim"
	case strings.HasPrefix(p, "/v1/work/"):
		return "dist.handler." + p[strings.LastIndex(p, "/")+1:]
	default:
		return "service.handler.other"
	}
}

// leaseClock is the worker's RoundTripper in the traced run: it times
// claim, heartbeat and result round trips, pairs each granted claim with
// its result acknowledgement by lease ID, and sums the time the worker
// idles between an empty claim and its next one.
type leaseClock struct {
	base http.RoundTripper
	rec  *recorder

	mu        sync.Mutex
	claimMS   []float64
	resultMS  []float64
	leaseMS   []float64
	idleMS    float64
	emptyAt   time.Time
	claimedAt map[string]time.Time
}

func (l *leaseClock) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	kind := path[strings.LastIndex(path, "/")+1:] // claim, heartbeat or result
	lease := ""
	if kind != "claim" {
		lease = strings.TrimSuffix(strings.TrimPrefix(path, "/v1/work/"), "/"+kind)
	}
	start := time.Now()
	l.mu.Lock()
	if kind == "claim" && !l.emptyAt.IsZero() {
		l.idleMS += ms(start.Sub(l.emptyAt))
		l.emptyAt = time.Time{}
	}
	l.mu.Unlock()

	sp := l.rec.open("dist."+kind, lease, 0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(sp.ID(), 10))
	req.Header.Set(reqHeader, lease)
	resp, err := l.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	var grant dist.Grant
	if kind == "claim" && resp.StatusCode == http.StatusOK {
		// Read the grant for its lease ID and hand the worker the same bytes.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			sp.end()
			return nil, rerr
		}
		_ = json.Unmarshal(body, &grant) // a bad grant is the worker's error to report
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	sp.end()
	end := time.Now()

	l.mu.Lock()
	defer l.mu.Unlock()
	switch kind {
	case "claim":
		l.claimMS = append(l.claimMS, ms(end.Sub(start)))
		if resp.StatusCode == http.StatusNoContent {
			l.emptyAt = end
		} else if grant.LeaseID != "" {
			l.claimedAt[grant.LeaseID] = start
		}
	case "result":
		l.resultMS = append(l.resultMS, ms(end.Sub(start)))
		if at, ok := l.claimedAt[lease]; ok && resp.StatusCode < 300 {
			l.leaseMS = append(l.leaseMS, ms(end.Sub(at)))
			delete(l.claimedAt, lease)
		}
	}
	return resp, nil
}

// leaseTimes is a copy of a leaseClock's measurements.
type leaseTimes struct {
	claimMS, resultMS, leaseMS []float64
	idleMS                     float64
}

func (l *leaseClock) snapshot() leaseTimes {
	l.mu.Lock()
	defer l.mu.Unlock()
	return leaseTimes{
		claimMS:  append([]float64(nil), l.claimMS...),
		resultMS: append([]float64(nil), l.resultMS...),
		leaseMS:  append([]float64(nil), l.leaseMS...),
		idleMS:   l.idleMS,
	}
}
