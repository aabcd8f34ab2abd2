package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"suit/internal/core"
	"suit/internal/dist"
	"suit/internal/engine"
)

// Config sizes the service. The zero value of every field except
// StateDir means "use the default".
type Config struct {
	// StateDir is the daemon's persistent root: the engine's scenario
	// cache lives in cas/, the one record of finished work. Required.
	StateDir string
	// EngineWorkers bounds the engine's scenario worker pool
	// (default GOMAXPROCS via the engine).
	EngineWorkers int
	// ExecJobs is how many submitted jobs execute concurrently; the
	// engine pool is shared between them. Default 2.
	ExecJobs int
	// QueueDepth bounds the admission queue; a submission that finds
	// it full is rejected with retry advice. Default 64.
	QueueDepth int
	// Dist configures the distributed tier: every daemon runs a work
	// dispatcher (costless with zero workers — the first offer declines
	// to local execution), and suitworker processes pull leased units
	// from it over /v1/work. The zero value uses the dispatcher's
	// defaults; Dist.RemoteOnly forbids local fallback.
	Dist dist.Config

	// runJob overrides the engine's run function. Test-only: package
	// tests wrap core.RunJob to gate execution deterministically; the
	// wrapper must return the same outcomes or byte-identity breaks.
	runJob engine.RunFunc[core.Scenario, core.Outcome]
}

func (c Config) withDefaults() (Config, error) {
	if c.StateDir == "" {
		return c, errors.New("service: Config.StateDir is required")
	}
	if c.ExecJobs <= 0 {
		c.ExecJobs = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c, nil
}

// SubmitOutcome says how a submission was resolved.
type SubmitOutcome int

const (
	// SubmitQueued admitted a new job to the queue.
	SubmitQueued SubmitOutcome = iota
	// SubmitCoalesced matched a live or done registry job: the
	// single-flight path — no new engine execution.
	SubmitCoalesced
	// SubmitQueueFull rejected the submission: the admission queue is
	// at capacity. Retry after RetryAfterSeconds.
	SubmitQueueFull
	// SubmitDraining rejected the submission: the daemon is shutting
	// down.
	SubmitDraining
)

// Service is the sweep-as-a-service layer: a job registry keyed by
// spec fingerprint, a bounded admission queue, and a pool of job
// executors sharing one engine and its scenario cache.
type Service struct {
	cfg  Config
	eng  *engine.Engine[core.Scenario, core.Outcome]
	dist *dist.Dispatcher

	runCtx     context.Context
	cancelRuns context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for deterministic listings
	queue    chan *Job
	draining bool

	execWG sync.WaitGroup

	// Counters for /metrics. jobSecondsMilli accumulates executed-job
	// wall time (telemetry only — never part of a result).
	submissions     atomic.Int64
	dedupHits       atomic.Int64
	rejected        atomic.Int64
	jobsExecuted    atomic.Int64
	jobSecondsMilli atomic.Int64
}

// New builds a service and starts its executor pool. Call Drain to
// stop it.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(cfg.StateDir, "cas")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Service{
		cfg:   cfg,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueDepth),
	}
	s.runCtx, s.cancelRuns = context.WithCancel(context.Background())
	runJob := cfg.runJob
	if runJob == nil {
		runJob = core.RunJob
	}
	s.eng = engine.New(core.Scenario.Fingerprint, runJob, engine.Options{
		Workers:  cfg.EngineWorkers,
		BaseSeed: 0, // specs carry explicit per-scenario seeds
		CacheDir: cacheDir,
		Label:    "suitd",
	})
	// The distributed tier: the engine offers every uncached scenario to
	// the dispatcher first; with no live workers (or a tripped breaker)
	// the offer declines instantly and the scenario runs locally as
	// before. Results are content-addressed, so remote and local
	// execution cache byte-identical records.
	s.dist = dist.NewDispatcher(cfg.Dist)
	s.eng.SetRemote(s.dist.Execute)
	for i := 0; i < cfg.ExecJobs; i++ {
		s.execWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// EngineStats exposes the engine's cumulative accounting for /metrics.
func (s *Service) EngineStats() engine.Stats { return s.eng.Stats() }

// DistStats exposes the work dispatcher's accounting for /metrics.
func (s *Service) DistStats() dist.Stats { return s.dist.Stats() }

// Inflight is the engine's currently-executing scenario count.
func (s *Service) Inflight() int { return s.eng.Inflight() }

// QueueDepth reports (queued jobs, capacity).
func (s *Service) QueueDepth() (int, int) { return len(s.queue), s.cfg.QueueDepth }

// Submit resolves a spec submission: normalize, content-address,
// coalesce onto a live or done registry job, else admit to the bounded
// queue. An admitted spec whose points are in the scenario cache (a
// resubmission after a restart) replays them as disk hits. A failed job
// is not memoized, like a failed engine job: its spec is admitted
// afresh under the same ID. A non-nil error means the spec itself was
// invalid.
func (s *Service) Submit(raw Spec) (*Job, SubmitOutcome, error) {
	spec, err := raw.Normalize()
	if err != nil {
		return nil, 0, err
	}
	id := spec.ID()
	s.submissions.Add(1)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, SubmitDraining, nil
	}
	prev, known := s.jobs[id]
	if known && prev.State() != StateFailed {
		// The single-flight path: identical spec, one execution —
		// whether the original is still queued, mid-run, or finished.
		s.dedupHits.Add(1)
		return prev, SubmitCoalesced, nil
	}
	total := len(spec.grid()) * len(spec.Benches)
	j := newJob(id, spec, total)
	select {
	case s.queue <- j:
		s.jobs[id] = j
		if !known {
			s.order = append(s.order, id)
		}
		return j, SubmitQueued, nil
	default:
		s.rejected.Add(1)
		return nil, SubmitQueueFull, nil
	}
}

// Job looks a registry job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobsInOrder snapshots the registry in submission order.
func (s *Service) JobsInOrder() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// RetryAfterSeconds advises a rejected client when to retry: the time
// for the backlog ahead of it to drain — ⌈queued / ExecJobs⌉ executor
// waves of the mean executed-job duration (5 s before any job has
// finished) — clamped to [1, 300]. A rejected client was turned away by
// a full queue, so advising one mean duration regardless of depth would
// send the whole herd back into a still-full queue; scaling by
// occupancy spreads the retries across the drain.
func (s *Service) RetryAfterSeconds() int {
	n := s.jobsExecuted.Load()
	secs := 5.0
	if n > 0 {
		secs = float64(s.jobSecondsMilli.Load()) / 1000 / float64(n)
	}
	waves := math.Ceil(float64(len(s.queue)) / float64(s.cfg.ExecJobs))
	if waves < 1 {
		waves = 1
	}
	return int(math.Min(300, math.Max(1, math.Ceil(secs*waves))))
}

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the service down gracefully: new submissions are
// refused, queued-but-unstarted jobs are canceled (their submitters
// resubmit after restart and replay from the scenario cache), and
// running jobs get until ctx's deadline to finish. When the deadline
// expires the engine runs are cancelled — every completed scenario is
// already cached, so a restarted daemon replays the finished points
// from disk and the resubmitted result is byte-identical.
// Always returns once the executors have stopped.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.execWG.Wait()
		return nil
	}
	s.draining = true
	close(s.queue) // executors drain the remainder; Submit is refused already
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.execWG.Wait()
		close(done)
	}()
	var interrupted error
	select {
	case <-done:
	case <-ctx.Done():
		interrupted = ctx.Err()
		s.cancelRuns()
		<-done
	}
	s.cancelRuns()
	// Executors are stopped; shut the dispatcher so in-flight remote
	// offers resolve (to local fallback — already moot) and its janitor
	// exits. Claims held at a drained daemon are answered 503 at once, so
	// the HTTP server's shutdown does not wait on them.
	s.dist.Close()
	return interrupted
}

// worker executes queued jobs until the queue closes at drain time.
func (s *Service) worker() {
	defer s.execWG.Done()
	for job := range s.queue {
		if s.Draining() || s.runCtx.Err() != nil {
			job.finish(StateCanceled, nil, "daemon drained before the job started; resubmit to resume")
			continue
		}
		start := time.Now() //lint:allow determinism job wall time only feeds the Retry-After estimate and /metrics, never results
		state, res, errText := s.execute(job)
		s.jobsExecuted.Add(1)
		s.jobSecondsMilli.Add(time.Since(start).Milliseconds()) //lint:allow determinism telemetry-only duration accounting
		// Counted before it is published, so a client that sees the job
		// end also sees it in suitd_jobs_executed_total.
		job.finish(state, res, errText)
	}
}

// execute runs one job through the engine, publishing each resolved
// point as progress, and returns the terminal state the worker
// finishes it with: done with the aggregated result, or failed or
// canceled with the reason.
func (s *Service) execute(job *Job) (State, *Result, string) {
	job.setRunning()
	scs, grid, err := job.Spec.Scenarios()
	if err != nil {
		return StateFailed, nil, err.Error()
	}
	outs, err := s.eng.RunProgress(s.runCtx, scs, job.advance)
	if errors.Is(err, context.Canceled) {
		return StateCanceled, nil, "interrupted by drain: completed points are cached; resubmit after restart to resume"
	}
	if err != nil {
		return StateFailed, nil, err.Error()
	}
	res, err := aggregate(job.ID, job.Spec, grid, outs)
	if err != nil {
		return StateFailed, nil, err.Error()
	}
	return StateDone, res, ""
}
