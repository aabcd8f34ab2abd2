package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"suit/internal/core"
	"suit/internal/engine"
	"suit/internal/units"
)

// testScenario builds a registry-resolvable scenario; i varies the
// fingerprint.
func testScenario(t *testing.T, i int) core.Scenario {
	t.Helper()
	chip, err := core.ChipByName("A")
	if err != nil {
		t.Fatal(err)
	}
	benches, err := core.BenchesByName([]string{core.SweepBenchNames[0]})
	if err != nil {
		t.Fatal(err)
	}
	params := core.SweepGrid(chip)[0] // a runnable, validated parameter set
	return core.Scenario{
		Chip:         chip,
		Bench:        benches[0],
		Kind:         core.KindFV,
		SpendAging:   true,
		Instructions: uint64(20_000 + i),
		Seed:         uint64(i + 1),
		Params:       &params,
	}
}

// TestScenarioWireRoundTrip: encode → JSON → decode must reproduce the
// identical fingerprint, across chips, co-benches and sweep params.
func TestScenarioWireRoundTrip(t *testing.T) {
	var scenarios []core.Scenario
	for _, letter := range core.ChipLetters() {
		chip, err := core.ChipByName(letter)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range core.SweepGrid(chip)[:2] {
			p := p
			benches, err := core.BenchesByName(core.SweepBenchNames[:2])
			if err != nil {
				t.Fatal(err)
			}
			scenarios = append(scenarios, core.Scenario{
				Chip: chip, Bench: benches[0], CoBenches: benches[1:],
				Kind: core.KindFV, Cores: 2, SpendAging: true,
				Instructions: 5000, Seed: 42, Params: &p,
				RecordTimeline: true, SampleEvery: units.Microseconds(50),
			})
		}
	}
	for _, sc := range scenarios {
		w, err := EncodeScenario(sc)
		if err != nil {
			t.Fatalf("encode %s: %v", sc.Fingerprint(), err)
		}
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back ScenarioWire
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != sc.Fingerprint() {
			t.Errorf("fingerprint drifted over the wire:\n got %s\nwant %s", got.Fingerprint(), sc.Fingerprint())
		}
	}
}

// TestEncodeScenarioRejectsForeignChip: a chip outside the registry
// cannot travel and must be refused (the caller runs it locally).
func TestEncodeScenarioRejectsForeignChip(t *testing.T) {
	sc := testScenario(t, 0)
	sc.Chip.Name = "Bespoke FPGA"
	if _, err := EncodeScenario(sc); err == nil {
		t.Fatal("EncodeScenario accepted a chip that is not in the registry")
	}
}

// resultFor builds a valid ResultMsg for a unit.
func resultFor(t *testing.T, fp string, marker int) ResultMsg {
	t.Helper()
	raw, err := json.Marshal(core.Outcome{Efficiency: float64(marker)})
	if err != nil {
		t.Fatal(err)
	}
	return ResultMsg{Fingerprint: fp, Outcome: raw, Digest: engine.ResultDigest(fp, raw)}
}

// startExecute launches Execute in the background and returns a channel
// with its verdict.
type execVerdict struct {
	out     core.Outcome
	handled bool
	err     error
}

func startExecute(d *Dispatcher, sc core.Scenario) <-chan execVerdict {
	ch := make(chan execVerdict, 1)
	go func() {
		out, handled, err := d.Execute(context.Background(), sc, sc.Fingerprint(), 99)
		ch <- execVerdict{out, handled, err}
	}()
	return ch
}

func waitVerdict(t *testing.T, ch <-chan execVerdict) execVerdict {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("Execute did not return")
		return execVerdict{}
	}
}

// claimSoon polls Claim until a grant appears (reassigned units carry a
// notBefore backoff, so an immediate claim can legitimately miss).
func claimSoon(t *testing.T, d *Dispatcher, worker string) Grant {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if g, ok := d.Claim(worker); ok {
			return g
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no grant appeared")
	return Grant{}
}

func newTestDispatcher(t *testing.T, cfg Config) *Dispatcher {
	t.Helper()
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	d := NewDispatcher(cfg)
	t.Cleanup(d.Close)
	return d
}

// TestDispatcherHappyPath: offer → claim → result → Execute returns the
// verified outcome as a handled remote execution.
func TestDispatcherHappyPath(t *testing.T) {
	d := newTestDispatcher(t, Config{})
	d.Claim("w1") // registers w1 as live so Execute offers remotely
	sc := testScenario(t, 1)
	vch := startExecute(d, sc)

	g := claimSoon(t, d, "w1")
	if g.Unit.Fingerprint != sc.Fingerprint() || g.Unit.Seed != 99 {
		t.Fatalf("grant unit = %q seed %d, want %q seed 99", g.Unit.Fingerprint, g.Unit.Seed, sc.Fingerprint())
	}
	status, err := d.Result(g.LeaseID, resultFor(t, g.Unit.Fingerprint, 7))
	if err != nil || status != "accepted" {
		t.Fatalf("Result = %q, %v; want accepted", status, err)
	}
	v := waitVerdict(t, vch)
	if v.err != nil || !v.handled || v.out.Efficiency != 7 {
		t.Fatalf("Execute = (%v, handled=%v, %v), want the remote outcome", v.out.Efficiency, v.handled, v.err)
	}
	st := d.Stats()
	if st.Offered != 1 || st.Completed != 1 || st.Leases != 1 {
		t.Errorf("stats = %+v, want 1 offered/completed/lease", st)
	}
}

// TestDispatcherNoWorkersDeclines: with no live worker Execute must
// decline immediately — the graceful-degradation contract.
func TestDispatcherNoWorkersDeclines(t *testing.T) {
	d := newTestDispatcher(t, Config{})
	sc := testScenario(t, 2)
	out, handled, err := d.Execute(context.Background(), sc, sc.Fingerprint(), 1)
	if handled || err != nil {
		t.Fatalf("Execute = (%v, handled=%v, %v), want an immediate decline", out, handled, err)
	}
	if st := d.Stats(); st.LocalFallbacks != 1 {
		t.Errorf("LocalFallbacks = %d, want 1", st.LocalFallbacks)
	}
}

// TestDeclineSkipsEncoding: with no live worker, a decline checks
// eligibility before it builds the scenario's wire form. Encoding a
// scenario makes about a hundred allocations, so a decline that stays
// within a handful never paid for it.
func TestDeclineSkipsEncoding(t *testing.T) {
	d := newTestDispatcher(t, Config{})
	sc := testScenario(t, 2)
	key := sc.Fingerprint()
	allocs := testing.AllocsPerRun(100, func() {
		if _, handled, err := d.Execute(context.Background(), sc, key, 1); handled || err != nil {
			t.Fatalf("Execute: handled=%v err=%v, want a decline", handled, err)
		}
	})
	if allocs > 4 {
		t.Errorf("a decline made %.0f allocations, want at most 4", allocs)
	}
}

// TestLeaseExpiryReassigns: a claimed unit whose worker goes silent is
// reassigned after TTL, and the second lease can complete it.
func TestLeaseExpiryReassigns(t *testing.T) {
	d := newTestDispatcher(t, Config{LeaseTTL: 40 * time.Millisecond, QuarantineAfter: 100, TripAfter: 100})
	d.Claim("w1")
	sc := testScenario(t, 3)
	vch := startExecute(d, sc)

	g1 := claimSoon(t, d, "w1")
	// w1 crashes: no heartbeat, no result. The janitor expires the lease.
	g2 := claimSoon(t, d, "w2")
	if g2.Unit.Fingerprint != g1.Unit.Fingerprint {
		t.Fatalf("reassigned unit %q != original %q", g2.Unit.Fingerprint, g1.Unit.Fingerprint)
	}
	if g2.LeaseID == g1.LeaseID {
		t.Fatal("reassignment reused the lease ID")
	}
	if status, err := d.Result(g2.LeaseID, resultFor(t, g2.Unit.Fingerprint, 5)); err != nil || status != "accepted" {
		t.Fatalf("Result on the second lease = %q, %v", status, err)
	}
	if v := waitVerdict(t, vch); v.err != nil || !v.handled || v.out.Efficiency != 5 {
		t.Fatalf("Execute verdict %+v, want the reassigned outcome", v)
	}
	st := d.Stats()
	if st.Expired != 1 || st.Reassigned != 1 {
		t.Errorf("Expired=%d Reassigned=%d, want 1/1", st.Expired, st.Reassigned)
	}
	// A late result from the crashed worker's lease is a verified
	// duplicate, not an error.
	if status, err := d.Result(g1.LeaseID, resultFor(t, g1.Unit.Fingerprint, 5)); err != nil || status != "duplicate" {
		t.Fatalf("late duplicate = %q, %v; want duplicate", status, err)
	}
	// ...but a *different* result for the same fingerprint is a
	// determinism violation and must be rejected.
	if _, err := d.Result(g1.LeaseID, resultFor(t, g1.Unit.Fingerprint, 6)); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting duplicate error = %v, want ErrConflict", err)
	}
}

// fakeClock installs a clock in cfg that moves only when the returned
// advance is called, so lease expiry does not race the host's load.
func fakeClock(cfg *Config) (advance func(time.Duration)) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	cfg.nowFn = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	return func(by time.Duration) {
		mu.Lock()
		now = now.Add(by)
		mu.Unlock()
	}
}

// TestHeartbeatKeepsLeaseAlive: heartbeats inside the TTL keep a lease
// alive well past the TTL, and the same silence without them expires it.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	for _, beat := range []bool{true, false} {
		cfg := Config{LeaseTTL: 50 * time.Millisecond}
		advance := fakeClock(&cfg)
		d := newTestDispatcher(t, cfg)
		d.Claim("w1")
		vch := startExecute(d, testScenario(t, 4))
		g := claimSoon(t, d, "w1")
		for i := 0; i < 8; i++ {
			advance(20 * time.Millisecond)
			if beat {
				if _, ok := d.Heartbeat(g.LeaseID); !ok {
					t.Fatalf("heartbeat %d reported the lease gone", i)
				}
			}
			d.expireLeases()
		}
		if !beat {
			if _, ok := d.Heartbeat(g.LeaseID); ok {
				t.Fatal("lease survived 160 ms without a heartbeat against a 50 ms TTL")
			}
			if st := d.Stats(); st.Expired != 1 {
				t.Errorf("Expired=%d without heartbeats, want 1", st.Expired)
			}
			continue
		}
		if status, err := d.Result(g.LeaseID, resultFor(t, g.Unit.Fingerprint, 1)); err != nil || status != "accepted" {
			t.Fatalf("Result after heartbeats = %q, %v", status, err)
		}
		waitVerdict(t, vch)
		if st := d.Stats(); st.Expired != 0 {
			t.Errorf("lease expired despite heartbeats (Expired=%d)", st.Expired)
		}
	}
}

// TestBadDigestReassigns: a torn body fails the lease and the unit is
// retried elsewhere.
func TestBadDigestReassigns(t *testing.T) {
	d := newTestDispatcher(t, Config{QuarantineAfter: 100, TripAfter: 100})
	d.Claim("w1")
	sc := testScenario(t, 5)
	vch := startExecute(d, sc)
	g1 := claimSoon(t, d, "w1")
	msg := resultFor(t, g1.Unit.Fingerprint, 9)
	msg.Digest = "feedfacefeedface"
	if _, err := d.Result(g1.LeaseID, msg); !errors.Is(err, ErrBadDigest) {
		t.Fatalf("bad digest error = %v, want ErrBadDigest", err)
	}
	g2 := claimSoon(t, d, "w2")
	if status, err := d.Result(g2.LeaseID, resultFor(t, g2.Unit.Fingerprint, 9)); err != nil || status != "accepted" {
		t.Fatalf("retry Result = %q, %v", status, err)
	}
	if v := waitVerdict(t, vch); !v.handled || v.err != nil {
		t.Fatalf("verdict %+v, want handled success", v)
	}
	if st := d.Stats(); st.BadDigests != 1 {
		t.Errorf("BadDigests = %d, want 1", st.BadDigests)
	}
}

// TestErrorResultsExhaustToLocalFallback: when every lease fails, the
// unit exhausts its remote budget and Execute declines so the engine
// runs it locally — remote trouble never fails a sweep.
func TestErrorResultsExhaustToLocalFallback(t *testing.T) {
	d := newTestDispatcher(t, Config{RemoteAttempts: 2, QuarantineAfter: 100, TripAfter: 100})
	d.Claim("w1")
	sc := testScenario(t, 6)
	vch := startExecute(d, sc)
	for i := 0; i < 2; i++ {
		g := claimSoon(t, d, "w1")
		status, err := d.Result(g.LeaseID, ResultMsg{Fingerprint: g.Unit.Fingerprint, Error: "simulated failure"})
		if err != nil || status != "retrying" {
			t.Fatalf("error result %d = %q, %v; want retrying", i, status, err)
		}
	}
	v := waitVerdict(t, vch)
	if v.handled || v.err != nil {
		t.Fatalf("verdict %+v, want a decline to local execution", v)
	}
	st := d.Stats()
	if st.Exhausted != 1 || st.ErrorResults != 2 || st.LocalFallbacks != 1 {
		t.Errorf("stats %+v, want Exhausted=1 ErrorResults=2 LocalFallbacks=1", st)
	}
}

// TestRemoteOnlySurfacesExhaustion: under RemoteOnly the same failure
// is a real error, not a silent fallback.
func TestRemoteOnlySurfacesExhaustion(t *testing.T) {
	d := newTestDispatcher(t, Config{RemoteAttempts: 1, RemoteOnly: true, QuarantineAfter: 100, TripAfter: 100})
	d.Claim("w1")
	sc := testScenario(t, 7)
	vch := startExecute(d, sc)
	g := claimSoon(t, d, "w1")
	if _, err := d.Result(g.LeaseID, ResultMsg{Fingerprint: g.Unit.Fingerprint, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	v := waitVerdict(t, vch)
	if !v.handled || v.err == nil || !errors.Is(v.err, errExhausted) {
		t.Fatalf("verdict %+v, want a handled exhaustion error", v)
	}
}

// TestWorkerQuarantine: consecutive lease failures quarantine the
// worker; its claims are refused until the window passes.
func TestWorkerQuarantine(t *testing.T) {
	d := newTestDispatcher(t, Config{QuarantineAfter: 2, QuarantineFor: time.Hour, TripAfter: 100, RemoteAttempts: 10})
	d.Claim("bad")
	sc := testScenario(t, 8)
	startExecute(d, sc)
	for i := 0; i < 2; i++ {
		g := claimSoon(t, d, "bad")
		if _, err := d.Result(g.LeaseID, ResultMsg{Fingerprint: g.Unit.Fingerprint, Error: "flaky"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := d.Claim("bad"); ok {
		t.Fatal("quarantined worker was granted a lease")
	}
	st := d.Stats()
	if st.Quarantines != 1 || st.QuarantineRefusals == 0 || st.QuarantinedWorkers != 1 {
		t.Errorf("stats %+v, want a recorded quarantine and refusal", st)
	}
	// A healthy worker still gets the unit.
	g := claimSoon(t, d, "good")
	if status, err := d.Result(g.LeaseID, resultFor(t, g.Unit.Fingerprint, 2)); err != nil || status != "accepted" {
		t.Fatalf("healthy worker Result = %q, %v", status, err)
	}
}

// TestTripBreaker: enough consecutive remote failures trip the
// dispatcher; new units decline straight to local until the window
// passes, then remote eligibility returns.
func TestTripBreaker(t *testing.T) {
	d := newTestDispatcher(t, Config{TripAfter: 2, TripFor: 60 * time.Millisecond, QuarantineAfter: 100, RemoteAttempts: 10})
	d.Claim("w1")
	sc := testScenario(t, 9)
	vch := startExecute(d, sc)
	for i := 0; i < 2; i++ {
		g := claimSoon(t, d, "w1")
		if _, err := d.Result(g.LeaseID, ResultMsg{Fingerprint: g.Unit.Fingerprint, Error: "outage"}); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Tripped() {
		t.Fatal("dispatcher did not trip after TripAfter consecutive failures")
	}
	sc2 := testScenario(t, 10)
	if _, handled, _ := d.Execute(context.Background(), sc2, sc2.Fingerprint(), 1); handled {
		t.Fatal("tripped dispatcher accepted a new unit")
	}
	time.Sleep(80 * time.Millisecond)
	if d.Tripped() {
		t.Fatal("trip window did not clear")
	}
	// The original unit is still in flight; finish it.
	g := claimSoon(t, d, "w1")
	if _, err := d.Result(g.LeaseID, resultFor(t, g.Unit.Fingerprint, 3)); err != nil {
		t.Fatal(err)
	}
	waitVerdict(t, vch)
}

// TestExecuteCancellation: a cancelled Execute abandons its unit — the
// queue forgets it and a late claim finds nothing.
func TestExecuteCancellation(t *testing.T) {
	d := newTestDispatcher(t, Config{})
	d.Claim("w1")
	sc := testScenario(t, 11)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := d.Execute(ctx, sc, sc.Fingerprint(), 1)
		done <- err
	}()
	// Wait for the unit to be queued, then cancel before any claim.
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PendingUnits == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute error = %v, want context.Canceled", err)
	}
	if _, ok := d.Claim("w1"); ok {
		t.Fatal("abandoned unit was still claimable")
	}
}

// TestNoLiveWorkersAbandonsToLocal is the whole-fleet-crash case: the
// only worker claims a unit and dies. The lease expires and the unit is
// requeued, but nothing will ever claim it again — Execute must notice
// the silent fleet and hand the unit back to local execution instead of
// waiting forever.
func TestNoLiveWorkersAbandonsToLocal(t *testing.T) {
	d := newTestDispatcher(t, Config{LeaseTTL: 30 * time.Millisecond, RemoteAttempts: 100, QuarantineAfter: 100, TripAfter: 100})
	d.Claim("w1")
	sc := testScenario(t, 13)
	vch := startExecute(d, sc)
	claimSoon(t, d, "w1")
	// w1 crashes: no heartbeat, no result, no further polls. The lease
	// expires and requeues the unit, then liveness lapses fleet-wide.
	v := waitVerdict(t, vch)
	if v.handled || v.err != nil {
		t.Fatalf("verdict %+v, want a decline to local execution", v)
	}
	st := d.Stats()
	if st.NoWorkerAbandons != 1 || st.LocalFallbacks != 1 {
		t.Errorf("NoWorkerAbandons=%d LocalFallbacks=%d, want 1/1", st.NoWorkerAbandons, st.LocalFallbacks)
	}
	if st.Expired != 1 {
		t.Errorf("Expired=%d, want the crashed worker's lease expired", st.Expired)
	}
	// The abandoned unit must be gone, not claimable by a late worker.
	if _, ok := d.Claim("late"); ok {
		t.Fatal("abandoned unit was still claimable")
	}
}

// TestNoLiveWorkersAbandonsQueuedUnit: same fleet-crash detection for a
// unit that was queued but never claimed — the worker registered, the
// offer went remote, and then every worker vanished before claiming.
func TestNoLiveWorkersAbandonsQueuedUnit(t *testing.T) {
	d := newTestDispatcher(t, Config{LeaseTTL: 30 * time.Millisecond, RemoteAttempts: 100, QuarantineAfter: 100, TripAfter: 100})
	d.Claim("w1") // registers w1 as live; w1 never polls again
	sc := testScenario(t, 14)
	v := waitVerdict(t, startExecute(d, sc))
	if v.handled || v.err != nil {
		t.Fatalf("verdict %+v, want a decline to local execution", v)
	}
	if st := d.Stats(); st.NoWorkerAbandons != 1 {
		t.Errorf("NoWorkerAbandons=%d, want 1", st.NoWorkerAbandons)
	}
}

// TestStaleWorkersPruned: the janitor forgets workers silent far past
// the liveness window (suitworker IDs embed the PID, so restart churn
// would otherwise grow the map forever) — but never a worker still
// serving out a quarantine.
func TestStaleWorkersPruned(t *testing.T) {
	var cfg Config
	advance := fakeClock(&cfg)
	d := newTestDispatcher(t, cfg)
	now := d.cfg.now()

	d.Claim("old")
	d.mu.Lock()
	d.workers["quarantined"] = &workerState{lastSeen: now, quarantinedUntil: now.Add(time.Hour)}
	d.mu.Unlock()

	// Far past the forget horizon, but inside the quarantine window.
	advance(workerForgetAfter*d.cfg.LiveWindow + time.Second)
	d.Claim("fresh")
	d.expireLeases()
	d.mu.Lock()
	_, hasOld := d.workers["old"]
	_, hasQuarantined := d.workers["quarantined"]
	_, hasFresh := d.workers["fresh"]
	d.mu.Unlock()
	if hasOld || !hasQuarantined || !hasFresh {
		t.Fatalf("after prune: old=%v quarantined=%v fresh=%v, want false/true/true", hasOld, hasQuarantined, hasFresh)
	}

	// Once the quarantine has passed and silence continues, it goes too.
	advance(time.Hour + workerForgetAfter*d.cfg.LiveWindow)
	d.expireLeases()
	d.mu.Lock()
	_, hasQuarantined = d.workers["quarantined"]
	d.mu.Unlock()
	if hasQuarantined {
		t.Fatal("quarantine-expired stale worker survived the prune")
	}
}

// TestExpiredLeaseOrderFollowsSeq: reassignment order is the numeric
// creation sequence, not the formatted lease ID — beyond 8 digits the
// zero padding overflows and string order diverges from creation order.
func TestExpiredLeaseOrderFollowsSeq(t *testing.T) {
	d := newTestDispatcher(t, Config{RemoteAttempts: 10, QuarantineAfter: 100, TripAfter: 100})
	past := time.Unix(1_700_000_000, 0) // long before any real now()
	mk := func(key string, seq uint64) {
		u := &unit{key: key, attempts: 1, done: make(chan struct{})}
		id := fmt.Sprintf("l%08d-%s", seq, key)
		d.units[key] = u
		d.leases[id] = &lease{id: id, seq: seq, u: u, worker: "w", deadline: past}
	}
	d.mu.Lock()
	mk("second", 100_000_000) // "l100000000-…" sorts before "l99999999-…"
	mk("first", 99_999_999)
	d.mu.Unlock()
	d.expireLeases()
	d.mu.Lock()
	var order []string
	for _, u := range d.pending {
		order = append(order, u.key)
	}
	d.mu.Unlock()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("reassignment order = %v, want [first second] (creation-sequence order)", order)
	}
}

// TestCloseFailsQueuedUnits: Close unblocks every waiting Execute with
// a decline (local fallback) rather than hanging the daemon's drain.
func TestCloseFailsQueuedUnits(t *testing.T) {
	d := NewDispatcher(Config{})
	d.Claim("w1")
	sc := testScenario(t, 12)
	vch := startExecute(d, sc)
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PendingUnits == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	d.Close()
	v := waitVerdict(t, vch)
	if v.handled || v.err != nil {
		t.Fatalf("verdict after Close = %+v, want a clean decline", v)
	}
}
