// Package engine runs large batches of independent simulations — the
// "hundreds of simulations" behind Table 7 and every other sweep-shaped
// experiment — through one shared, deterministic parallel runner.
//
// The engine provides what every sweep caller used to hand-roll:
//
//   - a bounded worker pool (GOMAXPROCS-sized by default, -j overridable)
//     consuming a queue of simulation specs;
//   - per-job deterministic seed derivation (a hash of the spec
//     fingerprint mixed with a base seed), so results are identical at
//     any parallelism level;
//   - a memoized result store — always in memory, optionally on disk
//     (-cache dir) — keyed by the canonical spec fingerprint, so repeated
//     table/sweep runs skip already-computed points;
//   - a progress/throughput reporter (jobs done, jobs/s, ETA) on stderr;
//   - one failure path: each job is attempted once under recover, and the
//     first failure cancels the batch and comes back naming the job's
//     fingerprint. A job is a pure function of its spec and derived
//     seed, so a second attempt would fail the same way; the simulator's
//     step bound (cpu.maxSteps) keeps every attempt finite.
//
// The disk cache is also the resume record: an interrupted sweep re-run
// with the same cache directory finds its finished jobs there and
// recomputes only the rest.
//
// Results come back in spec order regardless of completion order, which
// together with the seed contract makes engine output a pure function of
// (specs, base seed): `-j 1` and `-j 8` produce byte-identical reports.
package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// RunFunc computes one job's result from its spec and derived seed. The
// context is cancelled when the sweep is aborted; an implementation that
// honors it releases its worker promptly, one that ignores it (core.RunJob)
// finishes its current job first.
type RunFunc[S, R any] func(ctx context.Context, spec S, seed uint64) (R, error)

// RemoteFunc offers one job to an external execution tier — a pool of
// pull-based workers behind internal/dist's dispatcher — before the
// engine falls back to running it locally. It receives the job's
// canonical fingerprint (the content address of the work) and the seed
// the engine derived for it, so a remote executor reproduces exactly
// what a local attempt would compute.
//
// The contract is built for graceful degradation: handled=false means
// the remote tier declined the job (no live workers, circuit breaker
// tripped, remote attempts exhausted) and the engine MUST run it
// locally — declining is never an error. handled=true returns the
// remote result (or, only when the context was cancelled or the tier is
// configured remote-only, a real error). Because results are
// content-addressed and byte-identical wherever they run, routing a job
// remotely can change timing but never bytes.
type RemoteFunc[S, R any] func(ctx context.Context, spec S, key string, seed uint64) (r R, handled bool, err error)

// Options configures an Engine. The zero value is usable: GOMAXPROCS
// workers, base seed 0, no disk cache, no progress output.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// BaseSeed is mixed into every derived job seed (see DeriveSeed).
	BaseSeed uint64
	// CacheDir, when non-empty, keeps results on disk: the engine appends
	// them to a segment of its own there, and reads the segments of its
	// results revision and BaseSeed that exist when it first runs.
	CacheDir string
	// Progress, when non-nil, receives a throughput line every
	// progressEvery and a final summary. Point it at os.Stderr to keep
	// stdout reproducible.
	Progress io.Writer
	// Label prefixes progress lines; empty means "engine".
	Label string
}

// progressEvery is the progress reporter's interval.
const progressEvery = time.Second

// Stats counts the engine's work since creation. Jobs is the number of
// submitted specs; Unique excludes within-batch duplicates; Ran is the
// number of specs actually simulated. MemHits/DiskHits count unique specs
// resolved from the memo layers; HitRate is (MemHits+DiskHits)/Unique.
type Stats struct {
	Jobs     int64
	Unique   int64
	Ran      int64
	MemHits  int64
	DiskHits int64
	// Retried is always 0: every job is attempted once. It stays only
	// because the benchmark harness reads it.
	Retried int64
	// Failed counts jobs whose one attempt failed (not jobs a cancelled
	// sweep never finished, nor jobs that shared another Run's failure);
	// Panicked is the subset whose run function panicked.
	Failed   int64
	Panicked int64
	// Quarantined counts damaged disk cache records, skipped and left to
	// recompute.
	Quarantined int64
	// Coalesced counts jobs that took their result, or their failure,
	// from another Run call's in-flight or just-finished execution
	// instead of running themselves — the single-flight dedup that makes
	// N concurrent identical submissions cost one simulation.
	Coalesced int64
	// Remote counts jobs executed by the remote tier (see RemoteFunc);
	// they are included in Ran, so Ran-Remote is the local share.
	Remote int64
	// Elapsed is the wall-clock time spent inside Run calls.
	Elapsed time.Duration
}

// Hits is the number of unique specs served from a cache layer.
func (s Stats) Hits() int64 { return s.MemHits + s.DiskHits }

// HitRate is the fraction of unique specs served from a cache layer.
func (s Stats) HitRate() float64 {
	if s.Unique == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(s.Unique)
}

// Throughput is the number of simulated specs per second of Run time.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Ran) / s.Elapsed.Seconds()
}

func (s Stats) String() string {
	out := fmt.Sprintf("%d jobs (%d unique), %d ran, %d memo + %d disk hits (%.1f%% hit rate), %.1f jobs/s",
		s.Jobs, s.Unique, s.Ran, s.MemHits, s.DiskHits, s.HitRate()*100, s.Throughput())
	if s.Failed > 0 {
		out += fmt.Sprintf(", %d failed (%d panics)", s.Failed, s.Panicked)
	}
	if s.Quarantined > 0 {
		out += fmt.Sprintf(", %d damaged cache records skipped", s.Quarantined)
	}
	if s.Coalesced > 0 {
		out += fmt.Sprintf(", %d coalesced in flight", s.Coalesced)
	}
	if s.Remote > 0 {
		out += fmt.Sprintf(", %d executed remotely", s.Remote)
	}
	return out
}

// Engine runs spec-shaped jobs of type S producing results of type R.
// An Engine is safe for concurrent use; the in-memory memo persists for
// its lifetime.
type Engine[S, R any] struct {
	key  func(S) string
	run  RunFunc[S, R]
	opts Options

	// remote, when non-nil, is offered every job before it runs locally
	// (see RemoteFunc and SetRemote). Options cannot carry it because
	// Options is not generic.
	remote RemoteFunc[S, R]

	disk segments // unused when opts.CacheDir is empty

	mu      sync.Mutex
	memo    map[string]R
	stats   Stats
	flights map[string]*flight[R]
}

// flight is one in-progress execution of a fingerprint, shared between
// the Run call that leads it and any concurrent Run calls waiting on
// the same key. The leader publishes r/err before closing done, so a
// follower that returns from <-f.done reads them race-free.
type flight[R any] struct {
	done chan struct{}
	r    R
	err  error
}

// New builds an engine. key must return a canonical fingerprint: equal
// fingerprints are assumed to denote identical work and are computed only
// once. run receives the spec plus its derived seed (DeriveSeed of the
// fingerprint); callers whose specs carry explicit seeds may ignore it.
func New[S, R any](key func(S) string, run RunFunc[S, R], opts Options) *Engine[S, R] {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Label == "" {
		opts.Label = "engine"
	}
	return &Engine[S, R]{key: key, run: run, opts: opts,
		memo: make(map[string]R), flights: make(map[string]*flight[R])}
}

// SetRemote installs (or, with nil, removes) the remote-executor hook.
// Call it before the first Run; the engine reads it without locking on
// the job path, so installing it mid-sweep is a race.
func (e *Engine[S, R]) SetRemote(remote RemoteFunc[S, R]) { e.remote = remote }

// Stats returns a snapshot of the cumulative accounting.
func (e *Engine[S, R]) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Inflight is the number of jobs currently executing (single-flight
// leaders). It is a point-in-time gauge for telemetry — the /metrics
// endpoint of a serving daemon — not part of the cumulative Stats.
func (e *Engine[S, R]) Inflight() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.flights)
}

// job groups all batch indices that share one fingerprint.
type job[S any] struct {
	key     string
	spec    S
	indices []int
}

// Run evaluates every spec and returns the results in spec order.
//
// The first job failure cancels the remaining queue and is returned,
// naming the job's fingerprint; a panic comes back as a *PanicError.
// Cancelling ctx stops dispatching (in-flight jobs finish first) and
// returns the partial results plus ctx.Err(); completed jobs are
// already cached, so a re-run with the same cache directory recomputes
// only what is missing. All workers have exited by the time Run
// returns.
func (e *Engine[S, R]) Run(ctx context.Context, specs []S) ([]R, error) {
	return e.RunProgress(ctx, specs, func() {})
}

// RunProgress is Run that calls resolved once per unique fingerprint of
// specs when its result is known: a memo or disk hit, or the success of
// this call's own or a coalesced execution. A long-lived engine shared
// by many sweeps — the suitd daemon — counts each sweep's progress this
// way. resolved may be called from several goroutines at once.
func (e *Engine[S, R]) RunProgress(ctx context.Context, specs []S, resolved func()) ([]R, error) {
	start := time.Now() //lint:allow determinism wall-clock only feeds Stats.Elapsed and the progress reporter, never results
	results := make([]R, len(specs))

	e.disk.once.Do(e.openCache)

	// Group duplicate fingerprints so each is computed once per batch.
	byKey := make(map[string]*job[S], len(specs))
	order := make([]*job[S], 0, len(specs))
	for i, s := range specs {
		k := e.key(s)
		if j, ok := byKey[k]; ok {
			j.indices = append(j.indices, i)
			continue
		}
		j := &job[S]{key: k, spec: s, indices: []int{i}}
		byKey[k] = j
		order = append(order, j)
	}

	fill := func(j *job[S], r R) {
		for _, i := range j.indices {
			results[i] = r
		}
	}

	// Resolve the memo layers before spinning up workers.
	var pending []*job[S]
	var memHits, diskHits int64
	for _, j := range order {
		e.mu.Lock()
		r, ok := e.memo[j.key]
		e.mu.Unlock()
		if ok {
			memHits++
		} else if r, ok = e.diskGet(j.key); ok {
			e.mu.Lock()
			e.memo[j.key] = r
			e.mu.Unlock()
			diskHits++
		} else {
			pending = append(pending, j)
			continue
		}
		fill(j, r)
		resolved()
	}

	var done atomic.Int64
	stopProgress := e.startProgress(&done, len(pending), start)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan *job[S])
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if runCtx.Err() != nil {
					continue // drain the queue without working
				}
				r, shared, err := e.executeShared(runCtx, j)
				if err != nil {
					if runCtx.Err() != nil && errors.Is(err, context.Canceled) {
						continue // sweep aborted, not a job failure
					}
					if !shared {
						e.countFailure(err) // the leader counted a shared failure
					}
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("engine: job %d/%d (%s): %w", j.indices[0]+1, len(specs), j.key, err)
					}
					errMu.Unlock()
					cancel()
					continue
				}
				e.mu.Lock()
				e.memo[j.key] = r
				if !shared {
					e.stats.Ran++
				}
				e.mu.Unlock()
				if !shared {
					// The leader already persisted a shared result.
					e.diskPut(j.key, r)
				}
				// A shared execution resolves this call's job too.
				resolved()
				fill(j, r)
				done.Add(1)
			}
		}()
	}
feed:
	for _, j := range pending {
		select {
		case jobs <- j:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	stopProgress()

	e.mu.Lock()
	e.stats.Jobs += int64(len(specs))
	e.stats.Unique += int64(len(order))
	e.stats.MemHits += memHits
	e.stats.DiskHits += diskHits
	e.stats.Elapsed += time.Since(start) //lint:allow determinism Stats.Elapsed is operator telemetry, not a result
	e.mu.Unlock()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		// Partial results: every completed index is filled, and the
		// caches already hold the finished jobs.
		return results, err
	}
	return results, nil
}

// executeShared runs one job under single-flight dedup: the first Run
// call to reach a fingerprint becomes its leader and executes it; any
// concurrent Run call landing on the same key waits for the leader and
// shares its result (shared=true, counted in Stats.Coalesced) instead
// of executing a second time. A job failure is shared too, since a
// second execution would fail the same way; a leader stopped by its own
// context has not failed the job, so the follower loops around and
// executes it itself. A follower whose own context is cancelled stops
// waiting and returns the context error.
func (e *Engine[S, R]) executeShared(ctx context.Context, j *job[S]) (r R, shared bool, err error) {
	for {
		e.mu.Lock()
		// A concurrent Run may have finished the key after this batch's
		// cache-resolution pass; the memo is the cheapest re-check.
		if r, ok := e.memo[j.key]; ok {
			e.stats.Coalesced++
			e.mu.Unlock()
			return r, true, nil
		}
		if f, ok := e.flights[j.key]; ok {
			e.mu.Unlock()
			select {
			case <-f.done:
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue // the leader was stopped: lead our own execution
				}
				e.mu.Lock()
				e.stats.Coalesced++
				e.mu.Unlock()
				return f.r, true, f.err
			case <-ctx.Done():
				return r, false, ctx.Err()
			}
		}
		f := &flight[R]{done: make(chan struct{})}
		e.flights[j.key] = f
		e.mu.Unlock()

		r, err = e.executeJob(ctx, j)
		e.mu.Lock()
		delete(e.flights, j.key)
		e.mu.Unlock()
		f.r, f.err = r, err
		close(f.done)
		return r, false, err
	}
}

// countFailure counts one failed job, and its panic if it panicked.
func (e *Engine[S, R]) countFailure(err error) {
	var pe *PanicError
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Failed++
	if errors.As(err, &pe) {
		e.stats.Panicked++
	}
}

// startProgress launches the throughput reporter; the returned func stops
// it and prints the final line. A no-op when Progress is nil or the batch
// resolved entirely from cache.
func (e *Engine[S, R]) startProgress(done *atomic.Int64, total int, start time.Time) func() {
	if e.opts.Progress == nil || total == 0 {
		return func() {}
	}
	report := func(final bool) {
		d := done.Load()
		elapsed := time.Since(start).Seconds() //lint:allow determinism progress-line throughput is stderr telemetry, not a result
		rate := float64(d) / elapsed
		line := fmt.Sprintf("%s: %d/%d jobs, %.1f jobs/s", e.opts.Label, d, total, rate)
		if !final && rate > 0 {
			eta := time.Duration(float64(total-int(d))/rate*1e9) * time.Nanosecond
			line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
		}
		fmt.Fprintln(e.opts.Progress, line)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(progressEvery) //lint:allow determinism the progress ticker paces stderr telemetry, never results
		defer t.Stop()
		for {
			select {
			case <-t.C:
				report(false)
			case <-stop:
				return
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
		report(true)
	}
}

// DeriveSeed maps (base seed, spec fingerprint) to the job's simulation
// seed: an FNV-1a hash of the fingerprint mixed with the base seed and
// finalized with splitmix64. The derivation depends only on its inputs —
// never on worker count or completion order — which is
// what makes sweep output reproducible at any parallelism level. The
// result is never 0 so downstream code can keep treating a zero seed as
// "unset".
func DeriveSeed(base uint64, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	x := h.Sum64() ^ (base * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
