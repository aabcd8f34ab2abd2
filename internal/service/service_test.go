package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"suit/internal/core"
)

// tinySpec is a fast submission: n grid points over one short network
// workload at the minimum instruction count.
func tinySpec(n int, seed uint64) Spec {
	params := make([]ParamSpec, n)
	deadlines := []float64{10, 20, 30, 50, 80, 100, 150, 200}
	for i := range params {
		params[i] = ParamSpec{
			DeadlineUS:     deadlines[i%len(deadlines)],
			TimeSpanUS:     450,
			MaxExceptions:  2 + i/len(deadlines),
			DeadlineFactor: 9,
		}
	}
	return Spec{
		Benches:      []string{"VLC"},
		Instructions: 20_000,
		Seed:         seed,
		Params:       params,
	}
}

// drainNow shuts a service down with an already-expired context.
func drainNow(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}

func waitTerminal(t *testing.T, j *Job) Event {
	t.Helper()
	select {
	case <-j.closed:
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.ID)
	}
	return j.snapshot()
}

func TestSubmitRunsToDone(t *testing.T) {
	svc, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svc)

	job, outcome, err := svc.Submit(tinySpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmitQueued {
		t.Fatalf("outcome = %d, want SubmitQueued", outcome)
	}
	snap := waitTerminal(t, job)
	if snap.State != StateDone {
		t.Fatalf("state = %s (%s)", snap.State, snap.Error)
	}
	res := job.result
	if res == nil || len(res.Points) != 2 || res.GridPoints != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Points[0].Efficiency < res.Points[len(res.Points)-1].Efficiency {
		t.Error("ranking is not descending by efficiency")
	}
	// Resubmission of the finished job coalesces — no new execution.
	again, outcome, err := svc.Submit(tinySpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmitCoalesced || again != job {
		t.Errorf("resubmission: outcome %d, same job %v", outcome, again == job)
	}
	if ran := svc.EngineStats().Ran; ran != 2 {
		t.Errorf("engine ran %d scenarios, want 2", ran)
	}
}

// TestSingleFlightSubmissions: N concurrent identical submissions
// create exactly one job and one engine execution (run with -race).
func TestSingleFlightSubmissions(t *testing.T) {
	release := make(chan struct{})
	var executions atomic.Int64
	cfg := Config{StateDir: t.TempDir(), ExecJobs: 2}
	cfg.runJob = func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
		executions.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return core.Outcome{}, ctx.Err()
		}
		return core.RunJob(ctx, sc, seed)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svc)

	const callers = 8
	spec := tinySpec(1, 1)
	var wg sync.WaitGroup
	jobs := make([]*Job, callers)
	outcomes := make([]SubmitOutcome, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], outcomes[i], errs[i] = svc.Submit(spec)
		}(i)
	}
	wg.Wait()
	close(release)

	var queued, coalesced int
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if jobs[i] != jobs[0] {
			t.Fatalf("caller %d got a different job", i)
		}
		switch outcomes[i] {
		case SubmitQueued:
			queued++
		case SubmitCoalesced:
			coalesced++
		}
	}
	if queued != 1 || coalesced != callers-1 {
		t.Fatalf("queued=%d coalesced=%d, want 1 and %d", queued, coalesced, callers-1)
	}
	if snap := waitTerminal(t, jobs[0]); snap.State != StateDone {
		t.Fatalf("state = %s (%s)", snap.State, snap.Error)
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("engine executed %d scenarios, want exactly 1", got)
	}
}

func TestBackpressureQueueFull(t *testing.T) {
	release := make(chan struct{})
	cfg := Config{StateDir: t.TempDir(), ExecJobs: 1, QueueDepth: 1}
	cfg.runJob = func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return core.Outcome{}, ctx.Err()
		}
		return core.RunJob(ctx, sc, seed)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svc)

	jobA, _, err := svc.Submit(tinySpec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the executor to dequeue A, freeing the queue slot.
	for i := 0; jobA.State() != StateRunning; i++ {
		if i > 5000 {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, outcome, err := svc.Submit(tinySpec(1, 2)); err != nil || outcome != SubmitQueued {
		t.Fatalf("B: outcome %d err %v, want queued", outcome, err)
	}
	_, outcome, err := svc.Submit(tinySpec(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmitQueueFull {
		t.Fatalf("C: outcome %d, want SubmitQueueFull", outcome)
	}
	if retry := svc.RetryAfterSeconds(); retry < 1 || retry > 300 {
		t.Errorf("RetryAfterSeconds = %d, want within [1, 300]", retry)
	}
	// The advice scales with occupancy: B is still queued ahead of the
	// rejected client, so with a (synthetic) 42 s mean job duration one
	// executor wave must drain before a retry can be admitted.
	svc.jobsExecuted.Store(1)
	svc.jobSecondsMilli.Store(42_000)
	if retry := svc.RetryAfterSeconds(); retry != 42 {
		t.Errorf("RetryAfterSeconds with 1 queued job = %d, want 42 (1 wave x 42 s)", retry)
	}
	close(release)
}

func TestDrainRefusesSubmissions(t *testing.T) {
	svc, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	drainNow(t, svc)
	if _, outcome, err := svc.Submit(tinySpec(1, 1)); err != nil || outcome != SubmitDraining {
		t.Fatalf("outcome %d err %v, want SubmitDraining", outcome, err)
	}
}

// TestDrainResumeByteIdentical: a daemon killed mid-sweep, restarted
// against the same state dir and asked the same question reproduces
// the uninterrupted result byte for byte, recomputing only the points
// its scenario cache does not hold (run with -race).
func TestDrainResumeByteIdentical(t *testing.T) {
	spec := tinySpec(6, 3)
	specN, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	id := specN.ID()

	// Reference: an uninterrupted daemon lifetime.
	dirA := t.TempDir()
	svcA, err := New(Config{StateDir: dirA, EngineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobA, _, err := svcA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, jobA); snap.State != StateDone {
		t.Fatalf("reference job: %s (%s)", snap.State, snap.Error)
	}
	drainNow(t, svcA)
	bytesA, err := os.ReadFile(svcA.store.path(id))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted lifetime: two scenarios complete, the third blocks
	// until drain cancels it.
	dirB := t.TempDir()
	var calls atomic.Int64
	held := make(chan struct{}, 1)
	cfg := Config{StateDir: dirB, EngineWorkers: 1}
	cfg.runJob = func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
		if calls.Add(1) <= 2 {
			return core.RunJob(ctx, sc, seed)
		}
		select {
		case held <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return core.Outcome{}, ctx.Err()
	}
	svcB, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobB, _, err := svcB.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(120 * time.Second):
		t.Fatal("third scenario never started")
	}
	drainNow(t, svcB) // expired context: running sweeps are cancelled now
	if snap := jobB.snapshot(); snap.State != StateCanceled {
		t.Fatalf("interrupted job state = %s (%s), want canceled", snap.State, snap.Error)
	}
	if _, err := os.Stat(svcB.store.path(id)); err == nil {
		t.Fatal("interrupted job must not have stored a result")
	}

	// Restarted lifetime on the same state dir: the cache replays the
	// two finished points, the rest computes.
	svcC, err := New(Config{StateDir: dirB, EngineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svcC)
	jobC, outcome, err := svcC.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmitQueued {
		t.Fatalf("resubmission outcome = %d, want queued (a fresh registry)", outcome)
	}
	if snap := waitTerminal(t, jobC); snap.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", snap.State, snap.Error)
	}
	st := svcC.EngineStats()
	if st.DiskHits != 2 || st.Ran != 4 {
		t.Errorf("resume accounting: disk hits %d, ran %d; want 2/4", st.DiskHits, st.Ran)
	}
	bytesC, err := os.ReadFile(svcC.store.path(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytesA, bytesC) {
		t.Errorf("resumed result differs from uninterrupted run:\nA: %s\nC: %s", bytesA, bytesC)
	}
}

// TestResultStoreAcrossRestart: a completed result is served from the
// persistent store by a fresh daemon lifetime without any engine work.
func TestResultStoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svcA, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	jobA, _, err := svcA.Submit(tinySpec(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, jobA); snap.State != StateDone {
		t.Fatalf("job: %s (%s)", snap.State, snap.Error)
	}
	drainNow(t, svcA)

	svcB, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svcB)
	jobB, outcome, err := svcB.Submit(tinySpec(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmitStored {
		t.Fatalf("outcome = %d, want SubmitStored", outcome)
	}
	if jobB.State() != StateDone || jobB.result == nil {
		t.Fatal("stored job should be done with a result immediately")
	}
	if ran := svcB.EngineStats().Ran; ran != 0 {
		t.Errorf("restart served from store but ran %d scenarios", ran)
	}
}

// TestJobEvents: subscribers see the queued→running→done progression
// and the stream closes after the terminal event.
func TestJobEvents(t *testing.T) {
	svc, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svc)
	job, _, err := svc.Submit(tinySpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := job.Subscribe()
	defer cancel()
	var last Event
	sawTerminal := false
	for ev := range events {
		last = ev
		if ev.State == StateDone || ev.State == StateFailed || ev.State == StateCanceled {
			sawTerminal = true
		}
	}
	if !sawTerminal {
		t.Fatal("stream closed without a terminal event")
	}
	if last.State != StateDone || last.Done != last.Total || last.Total != 2 {
		t.Errorf("terminal event = %+v", last)
	}
}

// TestProgressPublishedPerPoint: a running job publishes each resolved
// point as it lands, not only at the end — the event stream shows
// Done == 1 while the second point is still executing.
func TestProgressPublishedPerPoint(t *testing.T) {
	var calls atomic.Int64
	second := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{StateDir: t.TempDir(), EngineWorkers: 1}
	cfg.runJob = func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
		if calls.Add(1) == 2 {
			close(second)
			select {
			case <-release:
			case <-ctx.Done(): // a failed test drains without waiting
				return core.Outcome{}, ctx.Err()
			}
		}
		return core.RunJob(ctx, sc, seed)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svc)
	job, _, err := svc.Submit(tinySpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := job.Subscribe()
	defer cancel()
	select {
	case <-second:
	case <-time.After(120 * time.Second):
		t.Fatal("second point never started")
	}
	var sawOne bool
	for !sawOne {
		select {
		case ev := <-events:
			if ev.State == StateRunning && ev.Done == 1 {
				sawOne = true
			}
			if ev.Done > 1 || ev.State != StateQueued && ev.State != StateRunning {
				t.Fatalf("event %+v before the second point finished", ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no running event with Done == 1 while the second point is held")
		}
	}
	close(release)
	if snap := waitTerminal(t, job); snap.State != StateDone || snap.Done != 2 {
		t.Fatalf("job ended %+v, want done with 2 points", snap)
	}
}

// TestRetryAfterScalesWithQueueDepth pins the backpressure advice to
// the backlog: ⌈queued / ExecJobs⌉ waves of the mean job duration,
// clamped to [1, 300]. The service is built directly (no executor pool)
// so queue occupancy and the duration telemetry are fully controlled.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	s := &Service{cfg: Config{ExecJobs: 2}, queue: make(chan *Job, 8)}
	s.jobsExecuted.Store(2)
	s.jobSecondsMilli.Store(16_000) // mean job duration 8 s
	if got := s.RetryAfterSeconds(); got != 8 {
		t.Errorf("empty queue: RetryAfterSeconds = %d, want 8 (one wave)", got)
	}
	for i := 0; i < 5; i++ {
		s.queue <- nil
	}
	if got := s.RetryAfterSeconds(); got != 24 {
		t.Errorf("5 queued / 2 executors: RetryAfterSeconds = %d, want 24 (3 waves x 8 s)", got)
	}
	s.jobSecondsMilli.Store(2_000_000) // mean 1000 s: the clamp must hold
	if got := s.RetryAfterSeconds(); got != 300 {
		t.Errorf("clamp: RetryAfterSeconds = %d, want 300", got)
	}
}

// TestEarlierVersionStoredResultNotServed: a state directory from a
// build whose fingerprints carried the suitd/v1 prefix holds results
// computed with that build's energy model. Resubmitting the same spec
// must run it afresh, not serve the v1 entry stored under the v1 job ID.
func TestEarlierVersionStoredResultNotServed(t *testing.T) {
	dir := t.TempDir()
	spec, err := tinySpec(2, 5).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(spec.Fingerprint(), "suitd/v2|", "suitd/v1|", 1)
	if v1 == spec.Fingerprint() {
		t.Fatalf("fingerprint %q lacks the suitd/v2 prefix", spec.Fingerprint())
	}
	sum := sha256.Sum256([]byte(v1))
	v1ID := hex.EncodeToString(sum[:16])
	if v1ID == spec.ID() {
		t.Fatal("v1 and v2 job IDs coincide")
	}
	store, err := newResultStore(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	store.put(v1ID, v1, &Result{})

	svc, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, svc)
	job, outcome, err := svc.Submit(tinySpec(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if outcome == SubmitStored || job.ID == v1ID {
		t.Fatalf("outcome %d, job %s: the v1 stored result answered a v2 submission", outcome, job.ID)
	}
	if snap := waitTerminal(t, job); snap.State != StateDone {
		t.Fatalf("job: %s (%s)", snap.State, snap.Error)
	}
	if ran := svc.EngineStats().Ran; ran == 0 {
		t.Error("the resubmitted spec was not recomputed")
	}
}
