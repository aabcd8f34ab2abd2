package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"suit/internal/core"
	"suit/internal/engine"
)

// Config sizes the dispatcher. The zero value of every field means "use
// the default"; the defaults suit a LAN of workers pulling from a daemon.
type Config struct {
	// LeaseTTL is how long a claimed unit may go without a heartbeat
	// before it is reassigned. Default 3s.
	LeaseTTL time.Duration
	// RemoteAttempts bounds how many leases a unit may burn (expiry,
	// error result, bad digest each count one) before the dispatcher
	// gives up on remote execution and the unit falls back to the local
	// engine. Default 3.
	RemoteAttempts int
	// RetryBackoff is the base delay before a failed unit re-enters the
	// pending queue, grown and jittered by the engine's deterministic
	// fingerprint-derived schedule (engine.RetryDelay). Default 100ms.
	RetryBackoff time.Duration
	// QuarantineAfter is how many consecutive lease failures a worker
	// may accumulate before its claims are refused for QuarantineFor.
	// Default 3; QuarantineFor default 30s.
	QuarantineAfter int
	QuarantineFor   time.Duration
	// TripAfter is how many consecutive remote failures (across all
	// workers) trip the dispatcher's circuit breaker: for TripFor no new
	// units are offered remotely and everything runs locally. Default 8;
	// TripFor default 10s.
	TripAfter int
	TripFor   time.Duration
	// LiveWindow is how recently a worker must have claimed to count as
	// live; with zero live workers Execute declines immediately instead
	// of parking units nobody will claim, and a unit already offered is
	// pulled back to local execution if every worker goes silent
	// mid-wait. Default 4×LeaseTTL.
	LiveWindow time.Duration
	// WorkerToken, when non-empty, requires every /v1/work request to
	// carry "Authorization: Bearer <token>". The result digest only
	// proves transport integrity — any client that can reach the
	// endpoints could otherwise post forged outcomes with a matching
	// self-computed digest — so set a token whenever the daemon is
	// reachable beyond the worker fleet's trust boundary. Default ""
	// (open: trust everyone who can connect).
	WorkerToken string
	// RemoteOnly forbids the local fallback: Execute waits for workers
	// instead of declining, and a unit that exhausts its remote attempts
	// fails the job instead of running locally. For fleets where the
	// daemon host must not simulate. Default false — and the default is
	// what makes every other failure mode safe.
	RemoteOnly bool

	// nowFn overrides the wall clock in tests.
	nowFn func() time.Time
}

// maxClaimHold caps how long an empty claim waits at the daemon, below
// the HTTP client timeouts of the workers (30 s in suitworker).
const maxClaimHold = 5 * time.Second

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.RemoteAttempts <= 0 {
		c.RemoteAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.QuarantineFor <= 0 {
		c.QuarantineFor = 30 * time.Second
	}
	if c.TripAfter <= 0 {
		c.TripAfter = 8
	}
	if c.TripFor <= 0 {
		c.TripFor = 10 * time.Second
	}
	if c.LiveWindow <= 0 {
		c.LiveWindow = 4 * c.LeaseTTL
	}
	return c
}

func (c Config) now() time.Time {
	if c.nowFn != nil {
		return c.nowFn()
	}
	// The clock only drives lease deadlines, quarantine windows and
	// liveness — pure scheduling. Results are content-addressed and
	// byte-identical regardless of when, where or how often a unit runs.
	return time.Now() //lint:allow determinism lease/quarantine/liveness timing is scheduling-only; unit results are content-addressed and cannot depend on it
}

// Errors a result post can fail with; the HTTP layer maps them to
// status codes.
var (
	// ErrGone: the lease is unknown and the fingerprint is not a
	// recently completed unit — expired and reassigned, or abandoned.
	ErrGone = errors.New("dist: lease gone")
	// ErrBadDigest: the result bytes do not match their digest (a torn
	// or garbled body). The lease fails and the unit is reassigned.
	ErrBadDigest = errors.New("dist: result digest mismatch")
	// ErrConflict: a duplicate delivery carried a different result than
	// the one recorded for the fingerprint — a determinism violation.
	// Counted and rejected; the recorded result stands.
	ErrConflict = errors.New("dist: conflicting duplicate result")
	// ErrMismatch: the result names a different fingerprint than its
	// lease — a misrouted or corrupted report.
	ErrMismatch = errors.New("dist: result fingerprint does not match lease")
)

// errExhausted completes a unit whose remote attempts are spent; under
// the default config the caller falls back to local execution.
var errExhausted = errors.New("dist: remote attempts exhausted")

// errClosed answers a claim at a closed dispatcher; the HTTP layer maps
// it to 503, so a draining daemon releases its held claims at once.
var errClosed = errors.New("dist: dispatcher closed")

// Stats is a snapshot of the dispatcher's accounting: counters since
// creation plus point-in-time gauges.
type Stats struct {
	// Offered counts units entered into the remote queue; Completed
	// counts those that came back verified from a worker.
	Offered   int64
	Completed int64
	// LocalFallbacks counts Execute calls that declined remote execution
	// (no live workers, tripped breaker, exhausted attempts, unencodable
	// scenario) and handed the unit back to the local engine.
	LocalFallbacks int64
	// NoWorkerAbandons counts the subset of LocalFallbacks where a unit
	// already offered remotely was pulled back because every worker went
	// silent mid-wait — the whole-fleet-crash path.
	NoWorkerAbandons int64
	// Leases/Expired/Reassigned/Exhausted trace the lease lifecycle;
	// ErrorResults counts worker-reported failures (fingerprint
	// mismatch, failed simulation).
	Leases       int64
	Expired      int64
	Reassigned   int64
	Exhausted    int64
	ErrorResults int64
	// Duplicates counts at-least-once re-deliveries that verified
	// against the recorded digest; Conflicts counts re-deliveries that
	// did not (a determinism violation — always 0 in a healthy fleet).
	// BadDigests counts torn/garbled bodies; Orphans counts results for
	// leases nobody remembers.
	Duplicates int64
	Conflicts  int64
	BadDigests int64
	Orphans    int64
	// WorkerFailures/Quarantines/QuarantineRefusals and Trips count the
	// two circuit breakers.
	WorkerFailures     int64
	Quarantines        int64
	QuarantineRefusals int64
	Trips              int64
	// RevisionRefusals counts claims refused because the worker was
	// built at another engine.ResultsRevision.
	RevisionRefusals int64
	// Gauges.
	PendingUnits       int
	LeasedUnits        int
	LiveWorkers        int
	QuarantinedWorkers int
	Tripped            bool
}

type unit struct {
	key       string
	wire      WorkUnit
	attempts  int
	notBefore time.Time
	res       core.Outcome
	err       error
	done      chan struct{}
}

type lease struct {
	id       string
	seq      uint64 // creation order; expiry processes leases by it
	u        *unit
	worker   string
	deadline time.Time
}

type workerState struct {
	lastSeen         time.Time
	consecFailures   int
	quarantinedUntil time.Time
}

// Dispatcher is the daemon side of the distributed tier: it queues
// fingerprint-addressed units, leases them to pulling workers, verifies
// and dedups results, and degrades to local execution whenever the
// remote tier cannot be trusted to make progress.
type Dispatcher struct {
	cfg Config

	mu        sync.Mutex
	units     map[string]*unit // live units by fingerprint
	pending   []*unit          // claim order; reassignments append
	leases    map[string]*lease
	workers   map[string]*workerState
	completed map[string]string // fingerprint → result digest, for dedup
	compOrder []string          // completed eviction order (FIFO)
	seq       uint64            // lease ID sequence
	consec    int               // consecutive remote failures (breaker input)
	tripUntil time.Time
	closed    bool
	stats     Stats
	// wake is closed and replaced (wakeLocked) whenever a held claim or a
	// remote-only Execute waiting for a worker may now proceed: a unit is
	// offered or requeued, a worker becomes live (seeLocked), or Close.
	wake chan struct{}

	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
}

// completedKeep bounds the duplicate-detection window: digests of the
// most recent completions kept for verify-and-dedup of late deliveries.
const completedKeep = 4096

// NewDispatcher builds a dispatcher and starts its lease janitor. Call
// Close to stop it.
func NewDispatcher(cfg Config) *Dispatcher {
	d := &Dispatcher{
		cfg:         cfg.withDefaults(),
		units:       make(map[string]*unit),
		leases:      make(map[string]*lease),
		workers:     make(map[string]*workerState),
		completed:   make(map[string]string),
		wake:        make(chan struct{}),
		janitorStop: make(chan struct{}),
	}
	interval := d.cfg.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	d.janitorWG.Add(1)
	go d.janitor(interval)
	return d
}

// Close stops the janitor and fails every queued unit so their Execute
// callers return (to the local engine, under the default config).
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.janitorWG.Wait()
		return
	}
	d.closed = true
	d.wakeLocked()
	for _, u := range d.units {
		u.err = errClosed
		close(u.done)
	}
	d.units = make(map[string]*unit)
	d.pending = nil
	d.leases = make(map[string]*lease)
	close(d.janitorStop)
	d.mu.Unlock()
	d.janitorWG.Wait()
}

// Stats snapshots the accounting.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.now()
	st := d.stats
	st.PendingUnits = len(d.pending)
	st.LeasedUnits = len(d.leases)
	for _, w := range d.workers {
		if now.Before(w.quarantinedUntil) {
			st.QuarantinedWorkers++
		} else if now.Sub(w.lastSeen) <= d.cfg.LiveWindow {
			st.LiveWorkers++
		}
	}
	st.Tripped = now.Before(d.tripUntil)
	return st
}

// Tripped reports whether the circuit breaker is open right now — the
// readiness signal for a remote-only daemon.
func (d *Dispatcher) Tripped() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg.now().Before(d.tripUntil)
}

// Execute is the engine's RemoteFunc: offer one job to the worker tier
// and wait for its digest-verified result. It declines — handled=false,
// sending the engine down its local path — whenever remote execution
// cannot make progress: no live workers, breaker tripped, dispatcher
// closed, scenario not wire-able, or remote attempts exhausted. Under
// RemoteOnly it instead waits for workers and surfaces remote
// exhaustion as a real error.
func (d *Dispatcher) Execute(ctx context.Context, sc core.Scenario, key string, seed uint64) (core.Outcome, bool, error) {
	var zero core.Outcome
	var u *unit
	for {
		d.mu.Lock()
		now := d.cfg.now()
		if d.closed {
			d.mu.Unlock()
			if d.cfg.RemoteOnly {
				return zero, true, errClosed
			}
			return zero, false, nil
		}
		if d.eligibleLocked(now) {
			if u == nil {
				// Encode only now, so a decline never pays for a wire
				// form; then re-check under the lock before enqueueing.
				d.mu.Unlock()
				wire, err := EncodeScenario(sc)
				if err != nil {
					// Not expressible on the wire (ad-hoc benchmark, foreign
					// chip): permanently a local job, never an error.
					d.mu.Lock()
					d.stats.LocalFallbacks++
					d.mu.Unlock()
					return zero, false, nil
				}
				u = &unit{key: key, wire: WorkUnit{Fingerprint: key, Seed: seed, Scenario: wire}, done: make(chan struct{})}
				continue
			}
			if _, dup := d.units[key]; dup {
				// The engine's single-flight layer makes concurrent offers
				// of one fingerprint impossible; if it ever happens, local
				// execution is always byte-identical and always safe.
				d.stats.LocalFallbacks++
				d.mu.Unlock()
				return zero, false, nil
			}
			d.units[key] = u
			d.pending = append(d.pending, u)
			d.stats.Offered++
			d.wakeLocked()
			d.mu.Unlock()
			break
		}
		if !d.cfg.RemoteOnly {
			d.stats.LocalFallbacks++
			d.mu.Unlock()
			return zero, false, nil
		}
		// Remote-only: wait for a worker to become live (seeLocked wakes
		// this wait), or for a tripped breaker to close (tripUntil is zero
		// when untripped).
		wake, tripEnd := d.wake, d.tripUntil
		d.mu.Unlock()
		waitWake(ctx, wake, tripEnd.Sub(now))
		if err := ctx.Err(); err != nil {
			return zero, true, err
		}
	}

	// Wait for the result — but keep watching worker liveness. Liveness
	// was checked at offer time only; if the last worker crashes while
	// the unit is queued (or after its lease expires), nothing will ever
	// claim it again and no lease failure fires to exhaust its attempt
	// budget, so without the recheck the wait would be unbounded. Under
	// the default config a dead fleet hands the unit back to local
	// execution; under RemoteOnly the wait-for-workers contract holds and
	// only ctx bounds it, so there is nothing to recheck.
	var recheck <-chan time.Time
	if !d.cfg.RemoteOnly {
		tick := time.NewTicker(max(d.cfg.LiveWindow/4, 10*time.Millisecond)) //lint:allow determinism liveness recheck pacing for a parked offer — scheduling only, results are content-addressed
		defer tick.Stop()
		recheck = tick.C
	}
	for {
		select {
		case <-u.done:
			if u.err != nil {
				if d.cfg.RemoteOnly {
					return zero, true, u.err
				}
				d.mu.Lock()
				d.stats.LocalFallbacks++
				d.mu.Unlock()
				return zero, false, nil
			}
			return u.res, true, nil
		case <-ctx.Done():
			d.abandon(u)
			return zero, true, ctx.Err()
		case <-recheck:
			d.mu.Lock()
			// units[key] == u rules out completion (results land under
			// this lock); a silent fleet means no claim can ever come.
			if d.units[u.key] == u && !d.hasLiveWorkerLocked(d.cfg.now()) {
				d.abandonLocked(u)
				d.stats.NoWorkerAbandons++
				d.stats.LocalFallbacks++
				d.mu.Unlock()
				return zero, false, nil
			}
			d.mu.Unlock()
		}
	}
}

// eligibleLocked: can a unit be offered remotely right now? Clears an
// expired trip as a side effect (the breaker's half-open transition).
func (d *Dispatcher) eligibleLocked(now time.Time) bool {
	if !d.tripUntil.IsZero() && !now.Before(d.tripUntil) {
		d.tripUntil = time.Time{}
		d.consec = 0
	}
	if now.Before(d.tripUntil) {
		return false
	}
	return d.hasLiveWorkerLocked(now)
}

// hasLiveWorkerLocked: has any non-quarantined worker claimed within
// the liveness window? When false, nothing will ever claim a pending
// unit — the signal Execute's wait loop uses to stop parking work nobody
// can take. (A worker with a lease in flight keeps itself live through
// its heartbeats, and one waiting in a held claim through that claim.)
func (d *Dispatcher) hasLiveWorkerLocked(now time.Time) bool {
	for _, w := range d.workers {
		if now.Before(w.quarantinedUntil) {
			continue
		}
		if now.Sub(w.lastSeen) <= d.cfg.LiveWindow {
			return true
		}
	}
	return false
}

// abandon forgets a unit whose Execute caller gave up (context
// cancelled): it leaves the queue, and any in-flight lease for it dies
// — a late result reads as gone.
func (d *Dispatcher) abandon(u *unit) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.abandonLocked(u)
}

func (d *Dispatcher) abandonLocked(u *unit) {
	if d.units[u.key] == u {
		delete(d.units, u.key)
	}
	for i, p := range d.pending {
		if p == u {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			break
		}
	}
	for id, l := range d.leases {
		if l.u == u {
			delete(d.leases, id)
		}
	}
}

// claimHold bounds how long handleClaim holds an empty claim: one
// LeaseTTL, capped at maxClaimHold and at LiveWindow, so the worker a
// claim marks seen stays live for the whole hold. The bound paces an
// empty answer only; which unit a worker gets never depends on it.
func (d *Dispatcher) claimHold() time.Duration {
	return min(d.cfg.LeaseTTL, d.cfg.LiveWindow, maxClaimHold)
}

// awaitClaim hands the next ready unit to workerID under a fresh lease,
// holding the claim up to hold when none is ready. A claim, granted or
// not, registers its worker as live. The claim waits until a unit is
// offered or requeued and ready, the dispatcher closes (errClosed), ctx
// ends (ctx's error: no lease goes to a request that has gone away) or
// the hold passes (ok=false, nil: the worker claims again); a zero hold
// makes one attempt. A quarantined worker's claim waits out the hold or
// its quarantine, whichever ends first, and is counted as one refusal.
func (d *Dispatcher) awaitClaim(ctx context.Context, workerID string, hold time.Duration) (Grant, bool, error) {
	held, cancel := context.WithTimeout(ctx, hold)
	defer cancel()
	refused := false
	for {
		if err := ctx.Err(); err != nil {
			return Grant{}, false, err
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return Grant{}, false, errClosed
		}
		now := d.cfg.now()
		var next time.Time // when a unit may next be claimable; zero: none pending
		if w := d.seeLocked(workerID, now); now.Before(w.quarantinedUntil) {
			if !refused {
				d.stats.QuarantineRefusals++
				refused = true
			}
			next = w.quarantinedUntil
		} else if g, ok, at := d.grantLocked(workerID, now); ok {
			d.mu.Unlock()
			return g, true, nil
		} else {
			next = at
		}
		wake := d.wake
		d.mu.Unlock()
		if held.Err() != nil {
			return Grant{}, false, nil
		}
		waitWake(held, wake, next.Sub(now))
	}
}

// seeLocked records that workerID was heard from at now: a claim, a
// heartbeat or a result. Every such record goes through here, so one
// that makes its worker live — its first, its first after a silence
// longer than LiveWindow, or its first since its quarantine ended —
// always wakes a remote-only Execute waiting for a live worker. (A
// quarantine that ends between two records wakes nobody itself; the
// next record does.)
func (d *Dispatcher) seeLocked(workerID string, now time.Time) *workerState {
	w := d.workers[workerID]
	if w == nil {
		w = &workerState{}
		d.workers[workerID] = w
	}
	wasLive := now.Sub(w.lastSeen) <= d.cfg.LiveWindow && !w.lastSeen.Before(w.quarantinedUntil)
	w.lastSeen = now
	if !wasLive && !now.Before(w.quarantinedUntil) {
		d.wakeLocked()
	}
	return w
}

// grantLocked leases the first ready pending unit to workerID. When none
// is ready it returns the earliest notBefore among the pending units
// (zero when none is pending), which is when the next claim can succeed
// without a new offer.
func (d *Dispatcher) grantLocked(workerID string, now time.Time) (Grant, bool, time.Time) {
	var next time.Time
	for i, u := range d.pending {
		if u.notBefore.After(now) {
			if next.IsZero() || u.notBefore.Before(next) {
				next = u.notBefore
			}
			continue
		}
		d.pending = append(d.pending[:i], d.pending[i+1:]...)
		u.attempts++
		d.seq++
		id := fmt.Sprintf("l%08d-%s", d.seq, shortKey(u.key))
		d.leases[id] = &lease{id: id, seq: d.seq, u: u, worker: workerID, deadline: now.Add(d.cfg.LeaseTTL)}
		d.stats.Leases++
		return Grant{LeaseID: id, TTLMillis: d.cfg.LeaseTTL.Milliseconds(), Unit: u.wire}, true, time.Time{}
	}
	return Grant{}, false, next
}

// wakeLocked wakes everything waiting on the wake channel by closing it,
// and puts a fresh one in its place for the next wait.
func (d *Dispatcher) wakeLocked() {
	close(d.wake)
	d.wake = make(chan struct{})
}

// waitWake waits until wake is closed, ctx ends, or after passes when it
// is positive.
func waitWake(ctx context.Context, wake <-chan struct{}, after time.Duration) {
	var timer <-chan time.Time
	if after > 0 {
		t := time.NewTimer(after) //lint:allow determinism wakes a held claim or a remote-only offer when a backoff, quarantine or trip ends; scheduling only, unit results are content-addressed
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-wake:
	case <-timer:
	case <-ctx.Done():
	}
}

// Heartbeat extends a lease. ok=false tells the worker the lease is
// gone (expired and reassigned, or the job was abandoned): it should
// stop computing the unit.
func (d *Dispatcher) Heartbeat(leaseID string) (ttl time.Duration, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, found := d.leases[leaseID]
	if !found {
		return 0, false
	}
	now := d.cfg.now()
	l.deadline = now.Add(d.cfg.LeaseTTL)
	d.seeLocked(l.worker, now)
	return d.cfg.LeaseTTL, true
}

// Result resolves a worker's report. Success paths return the ack
// status ("accepted" for a live lease, "duplicate" for a verified
// at-least-once re-delivery, "retrying" when the worker reported an
// error and the unit will be reassigned); failure paths return ErrGone,
// ErrBadDigest, ErrConflict or ErrMismatch.
func (d *Dispatcher) Result(leaseID string, msg ResultMsg) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.now()
	l, found := d.leases[leaseID]
	if !found {
		// At-least-once duplicate? A unit completed under another lease
		// (ours expired, or a torn 500 made the worker resend) re-delivers
		// here: verify against the recorded digest and dedup.
		if dig, done := d.completed[msg.Fingerprint]; done && msg.Error == "" {
			if msg.Digest == dig && engine.ResultDigest(msg.Fingerprint, msg.Outcome) == dig {
				d.stats.Duplicates++
				return "duplicate", nil
			}
			d.stats.Conflicts++
			return "", fmt.Errorf("%w: fingerprint %s", ErrConflict, shortKey(msg.Fingerprint))
		}
		d.stats.Orphans++
		return "", ErrGone
	}
	delete(d.leases, leaseID)
	u := l.u
	w := d.seeLocked(l.worker, now)
	if msg.Error != "" {
		d.stats.ErrorResults++
		d.failLeaseLocked(l, now, "worker reported: "+msg.Error)
		return "retrying", nil
	}
	if msg.Fingerprint != u.key {
		d.failLeaseLocked(l, now, "fingerprint mismatch")
		return "", ErrMismatch
	}
	if engine.ResultDigest(msg.Fingerprint, msg.Outcome) != msg.Digest {
		d.stats.BadDigests++
		d.failLeaseLocked(l, now, "digest mismatch")
		return "", ErrBadDigest
	}
	var out core.Outcome
	if err := json.Unmarshal(msg.Outcome, &out); err != nil {
		d.stats.BadDigests++
		d.failLeaseLocked(l, now, "undecodable outcome")
		return "", fmt.Errorf("%w: outcome: %v", ErrBadDigest, err)
	}
	// Verified result: complete the unit, record the digest for
	// duplicate verification, and reset both breakers' failure streaks.
	delete(d.units, u.key)
	d.recordCompletedLocked(u.key, msg.Digest)
	w.consecFailures = 0
	d.consec = 0
	d.stats.Completed++
	u.res, u.err = out, nil
	close(u.done)
	return "accepted", nil
}

// failLeaseLocked charges one lease failure: the worker's quarantine
// counter, the dispatcher's trip counter, and the unit's attempt budget
// — reassigning it with deterministic fingerprint-derived backoff, or
// completing it with errExhausted when the budget is spent.
func (d *Dispatcher) failLeaseLocked(l *lease, now time.Time, reason string) {
	d.stats.WorkerFailures++
	if w := d.workers[l.worker]; w != nil {
		w.consecFailures++
		if w.consecFailures >= d.cfg.QuarantineAfter {
			w.quarantinedUntil = now.Add(d.cfg.QuarantineFor)
			w.consecFailures = 0
			d.stats.Quarantines++
		}
	}
	d.consec++
	if d.consec >= d.cfg.TripAfter && !now.Before(d.tripUntil) {
		d.tripUntil = now.Add(d.cfg.TripFor)
		d.stats.Trips++
	}

	u := l.u
	if d.units[u.key] != u {
		return // abandoned while leased; nothing to requeue
	}
	if u.attempts >= d.cfg.RemoteAttempts {
		delete(d.units, u.key)
		d.stats.Exhausted++
		u.err = fmt.Errorf("%w after %d leases (%s)", errExhausted, u.attempts, reason)
		close(u.done)
		return
	}
	u.notBefore = now.Add(engine.RetryDelay(d.cfg.RetryBackoff, u.key, u.attempts-1))
	d.pending = append(d.pending, u)
	d.stats.Reassigned++
	d.wakeLocked()
}

// recordCompletedLocked remembers a completed fingerprint's digest for
// the duplicate-verification window, evicting FIFO beyond the cap.
func (d *Dispatcher) recordCompletedLocked(key, digest string) {
	if _, ok := d.completed[key]; !ok {
		d.compOrder = append(d.compOrder, key)
		if len(d.compOrder) > completedKeep {
			delete(d.completed, d.compOrder[0])
			d.compOrder = d.compOrder[1:]
		}
	}
	d.completed[key] = digest
}

// janitor expires leases whose heartbeat lapsed.
func (d *Dispatcher) janitor(interval time.Duration) {
	defer d.janitorWG.Done()
	t := time.NewTicker(interval) //lint:allow determinism the janitor paces lease-expiry sweeps — reassignment scheduling only, results are content-addressed
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.expireLeases()
		case <-d.janitorStop:
			return
		}
	}
}

// expireLeases fails every lease past its deadline, in lease-creation
// order (the numeric sequence stamped on the lease) so reassignment
// order is a deterministic function of the expiry set, not of map
// iteration. It also forgets workers gone long past the liveness
// window: suitworker IDs embed the PID, so without pruning every
// restart would grow the map forever.
func (d *Dispatcher) expireLeases() {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.now()
	var expired []*lease
	for _, l := range d.leases {
		if now.After(l.deadline) {
			expired = append(expired, l)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].seq < expired[j].seq })
	for _, l := range expired {
		delete(d.leases, l.id)
		d.stats.Expired++
		d.failLeaseLocked(l, now, "lease expired without heartbeat")
	}
	for id, w := range d.workers {
		if now.Sub(w.lastSeen) > workerForgetAfter*d.cfg.LiveWindow && !now.Before(w.quarantinedUntil) {
			delete(d.workers, id)
		}
	}
}

// workerForgetAfter, in LiveWindow multiples, is how long a silent
// worker's state is kept before the janitor forgets it. Long enough
// that a partitioned worker usually finds its failure history waiting
// when it returns; a quarantined worker is never forgotten early.
const workerForgetAfter = 4
