package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"suit/internal/engine"
)

// claimVerdict is what a held claim returned.
type claimVerdict struct {
	g   Grant
	ok  bool
	err error
}

// holdClaim starts a claim by a worker the dispatcher has not seen and
// returns once the claim is waiting. A claim that registers its worker
// closes the wake channel inside the critical section that starts its
// wait, so whatever the test does under d.mu afterwards happens while
// the claim waits.
func holdClaim(t *testing.T, ctx context.Context, d *Dispatcher, worker string) <-chan claimVerdict {
	t.Helper()
	d.mu.Lock()
	registered := d.wake
	d.mu.Unlock()
	ch := make(chan claimVerdict, 1)
	go func() {
		g, ok, err := d.awaitClaim(ctx, worker, d.claimHold())
		ch <- claimVerdict{g, ok, err}
	}()
	select {
	case <-registered:
	case <-time.After(10 * time.Second):
		t.Fatalf("the claim of %s never registered its worker", worker)
	}
	return ch
}

func waitClaim(t *testing.T, ch <-chan claimVerdict) claimVerdict {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("the held claim did not return")
		return claimVerdict{}
	}
}

// postClaim sends one claim over HTTP and returns its status and grant.
func postClaim(ctx context.Context, url, worker string) (int, Grant, error) {
	body, _ := json.Marshal(ClaimRequest{WorkerID: worker, Revision: engine.ResultsRevision})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/work/claim", bytes.NewReader(body))
	if err != nil {
		return 0, Grant{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, Grant{}, err
	}
	defer resp.Body.Close()
	var g Grant
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&g)
	}
	return resp.StatusCode, g, err
}

// TestHeldClaimGrantedMidWait: a claim that arrives before any offer is
// held at the daemon and granted the unit offered while it waits. The
// remote-only offer waits for a live worker, and the claim's
// registration is what wakes it, so the claim always comes first.
func TestHeldClaimGrantedMidWait(t *testing.T) {
	d := newTestDispatcher(t, Config{RemoteOnly: true, LeaseTTL: time.Minute})
	srv := startServer(t, d)
	sc := testScenario(t, 50)
	vch := startExecute(d, sc)

	code, g, err := postClaim(context.Background(), srv.URL, "w1")
	if err != nil || code != http.StatusOK {
		t.Fatalf("claim before the offer = %d (%v), want 200 with the unit offered mid-wait", code, err)
	}
	if g.Unit.Fingerprint != sc.Fingerprint() {
		t.Fatalf("granted %q, want %q", g.Unit.Fingerprint, sc.Fingerprint())
	}
	if status, err := d.Result(g.LeaseID, resultFor(t, g.Unit.Fingerprint, 4)); err != nil || status != "accepted" {
		t.Fatalf("Result = %q, %v", status, err)
	}
	if v := waitVerdict(t, vch); !v.handled || v.err != nil || v.out.Efficiency != 4 {
		t.Fatalf("verdict %+v, want the remote outcome", v)
	}
	if st := d.Stats(); st.Offered != 1 || st.Leases != 1 {
		t.Errorf("Offered=%d Leases=%d, want 1/1", st.Offered, st.Leases)
	}
}

// TestHeldClaimTakesRequeuedUnit: a unit requeued by a failed lease is
// granted to a claim already waiting, once its backoff has passed, with
// no new offer.
func TestHeldClaimTakesRequeuedUnit(t *testing.T) {
	const backoff = 20 * time.Millisecond
	d := newTestDispatcher(t, Config{LeaseTTL: time.Minute, RetryBackoff: backoff, QuarantineAfter: 100, TripAfter: 100})
	ctx := context.Background()
	d.claim("w1")
	sc := testScenario(t, 51)
	vch := startExecute(d, sc)
	g1, ok, err := d.awaitClaim(ctx, "w1", d.claimHold())
	if !ok || err != nil {
		t.Fatalf("first claim = %v, %v; want the offered unit", ok, err)
	}

	held := holdClaim(t, ctx, d, "w2")
	failedAt := time.Now()
	if status, err := d.Result(g1.LeaseID, ResultMsg{Fingerprint: g1.Unit.Fingerprint, Error: "flaky"}); err != nil || status != "retrying" {
		t.Fatalf("error result = %q, %v; want retrying", status, err)
	}
	v := waitClaim(t, held)
	if !v.ok || v.err != nil || v.g.Unit.Fingerprint != sc.Fingerprint() {
		t.Fatalf("held claim = %+v, want the requeued unit", v)
	}
	if wait, min := time.Since(failedAt), engine.RetryDelay(backoff, sc.Fingerprint(), 0); wait < min {
		t.Errorf("the requeued unit was granted %v after the failure, before its %v backoff", wait, min)
	}
	if st := d.Stats(); st.Offered != 1 || st.Reassigned != 1 || st.Leases != 2 {
		t.Errorf("Offered=%d Reassigned=%d Leases=%d, want 1/1/2", st.Offered, st.Reassigned, st.Leases)
	}
	if _, err := d.Result(v.g.LeaseID, resultFor(t, sc.Fingerprint(), 1)); err != nil {
		t.Fatal(err)
	}
	waitVerdict(t, vch)
}

// TestGoneClaimGetsNoLease: a held claim whose request context has ended
// is granted nothing, even when a unit is offered before it notices. The
// unit stays pending for the next claim.
func TestGoneClaimGetsNoLease(t *testing.T) {
	d := newTestDispatcher(t, Config{LeaseTTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	held := holdClaim(t, ctx, d, "w1")
	if st := d.Stats(); st.LiveWorkers != 1 {
		t.Fatalf("LiveWorkers = %d while the claim waits, want 1", st.LiveWorkers)
	}
	cancel()
	d.mu.Lock()
	offered := d.wake
	d.mu.Unlock()
	sc := testScenario(t, 52)
	vch := startExecute(d, sc)
	select {
	case <-offered:
	case <-time.After(10 * time.Second):
		t.Fatal("the unit was never offered")
	}
	if v := waitClaim(t, held); v.ok || !errors.Is(v.err, context.Canceled) {
		t.Fatalf("gone claim = %+v, want no lease and context.Canceled", v)
	}
	if st := d.Stats(); st.PendingUnits != 1 || st.Leases != 0 {
		t.Fatalf("PendingUnits=%d Leases=%d, want the unit still pending and no lease", st.PendingUnits, st.Leases)
	}
	g, ok, err := d.awaitClaim(context.Background(), "w2", d.claimHold())
	if !ok || err != nil {
		t.Fatalf("next claim = %v, %v; want the pending unit", ok, err)
	}
	if _, err := d.Result(g.LeaseID, resultFor(t, sc.Fingerprint(), 1)); err != nil {
		t.Fatal(err)
	}
	waitVerdict(t, vch)
}

// TestHeldClaimEndsWhenTheWorkerLeaves: over HTTP, a worker that drops
// its held claim ends the handler's request context, so the daemon stops
// holding a claim nobody will read.
func TestHeldClaimEndsWhenTheWorkerLeaves(t *testing.T) {
	d := newTestDispatcher(t, Config{LeaseTTL: time.Minute})
	mux := http.NewServeMux()
	d.Register(mux)
	ended := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		ended <- r.Context().Err()
	}))
	defer srv.Close()

	d.mu.Lock()
	registered := d.wake
	d.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	go postClaim(ctx, srv.URL, "w1") //nolint:errcheck // the client gives up on purpose
	select {
	case <-registered:
	case <-time.After(10 * time.Second):
		t.Fatal("the claim never registered its worker")
	}
	cancel()
	select {
	case err := <-ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the held claim ended with request context error %v, want context.Canceled: the daemon did not notice the worker leave", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the held claim never ended")
	}
	if st := d.Stats(); st.Leases != 0 {
		t.Errorf("Leases = %d, want 0", st.Leases)
	}
}

// TestCloseReleasesHeldClaim: Close ends a held claim at once with
// errClosed (a claim that ran out its hold returns no error), and a
// closed dispatcher answers later claims 503, so neither a drain nor
// the HTTP server's shutdown waits on a claim.
func TestCloseReleasesHeldClaim(t *testing.T) {
	d := newTestDispatcher(t, Config{LeaseTTL: time.Minute})
	srv := startServer(t, d)
	held := holdClaim(t, context.Background(), d, "w1")
	d.Close()
	if v := waitClaim(t, held); v.ok || !errors.Is(v.err, errClosed) {
		t.Fatalf("held claim after Close = %+v, want errClosed", v)
	}
	if code, _, err := postClaim(context.Background(), srv.URL, "w2"); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("claim at a closed dispatcher = %d (%v), want 503", code, err)
	}
}

// TestQuarantinedClaimIsHeld: a quarantined worker's claim is not
// answered at once (its worker would claim again at once, in a loop):
// it waits out the quarantine, is counted as one refusal, and then takes
// the unit that was ready all along. The clock moves only when the test
// moves it, so the quarantine cannot end before the claim waits.
func TestQuarantinedClaimIsHeld(t *testing.T) {
	const quarantine = 50 * time.Millisecond
	cfg := Config{LeaseTTL: time.Minute, QuarantineAfter: 1, QuarantineFor: quarantine, TripAfter: 100, RemoteAttempts: 10}
	advance := fakeClock(&cfg)
	d := newTestDispatcher(t, cfg)
	srv := startServer(t, d)
	d.claim("bad")
	sc := testScenario(t, 53)
	vch := startExecute(d, sc)
	g1 := claimSoon(t, d, "bad")
	if _, err := d.Result(g1.LeaseID, ResultMsg{Fingerprint: g1.Unit.Fingerprint, Error: "flaky"}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.QuarantinedWorkers != 1 {
		t.Fatalf("QuarantinedWorkers = %d, want 1", st.QuarantinedWorkers)
	}

	type answer struct {
		code int
		g    Grant
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		code, g, err := postClaim(context.Background(), srv.URL, "bad")
		answered <- answer{code, g, err}
	}()
	// Wait for the claim's refusal: the claim is then waiting, since the
	// clock cannot end the quarantine until it is advanced.
	for deadline := time.Now().Add(10 * time.Second); d.Stats().QuarantineRefusals == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the quarantined claim never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	advance(quarantine)
	var a answer
	select {
	case a = <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("the quarantined claim was not answered after its quarantine")
	}
	if a.err != nil || a.code != http.StatusOK || a.g.Unit.Fingerprint != sc.Fingerprint() {
		t.Fatalf("quarantined claim = %d (%v), want it held through the quarantine and then granted the unit", a.code, a.err)
	}
	if st := d.Stats(); st.QuarantineRefusals != 1 || st.Quarantines != 1 {
		t.Errorf("QuarantineRefusals=%d Quarantines=%d, want 1/1", st.QuarantineRefusals, st.Quarantines)
	}
	if _, err := d.Result(a.g.LeaseID, resultFor(t, sc.Fingerprint(), 1)); err != nil {
		t.Fatal(err)
	}
	waitVerdict(t, vch)
}

// TestRemoteOnlyOfferWaitsOutTrip: a remote-only offer made while the
// breaker is open waits for it to close, with no poll, and then reaches
// the claim waiting for it.
func TestRemoteOnlyOfferWaitsOutTrip(t *testing.T) {
	const tripFor = 100 * time.Millisecond
	d := newTestDispatcher(t, Config{RemoteOnly: true, RemoteAttempts: 1, TripAfter: 1, TripFor: tripFor, QuarantineAfter: 100})
	ctx := context.Background()
	first := startExecute(d, testScenario(t, 54))
	g, ok, err := d.awaitClaim(ctx, "w1", d.claimHold())
	if !ok || err != nil {
		t.Fatalf("first claim = %v, %v; want the offered unit", ok, err)
	}
	failedAt := time.Now()
	if _, err := d.Result(g.LeaseID, ResultMsg{Fingerprint: g.Unit.Fingerprint, Error: "outage"}); err != nil {
		t.Fatal(err)
	}
	if v := waitVerdict(t, first); !errors.Is(v.err, errExhausted) {
		t.Fatalf("first verdict %+v, want its exhaustion", v)
	}
	if st := d.Stats(); st.Trips != 1 {
		t.Fatalf("Trips = %d after one failure at TripAfter=1, want 1", st.Trips)
	}

	sc := testScenario(t, 55)
	second := startExecute(d, sc)
	g = claimSoon(t, d, "w1")
	if g.Unit.Fingerprint != sc.Fingerprint() {
		t.Fatalf("granted %q, want the unit offered once the trip ended", g.Unit.Fingerprint)
	}
	if wait := time.Since(failedAt); wait < tripFor {
		t.Errorf("offered %v after the trip began, inside its %v window", wait, tripFor)
	}
	if _, err := d.Result(g.LeaseID, resultFor(t, sc.Fingerprint(), 1)); err != nil {
		t.Fatal(err)
	}
	if v := waitVerdict(t, second); !v.handled || v.err != nil {
		t.Fatalf("second verdict %+v, want the remote outcome", v)
	}
}

// gateCtx is a context that reports when its Done channel is first
// asked for. A remote-only Execute asks for it first when it starts to
// wait for a live worker, so a test can act while that offer waits.
type gateCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *gateCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestHeartbeatAfterQuarantineWakesRemoteOnlyOffer: a remote-only offer
// waiting for a live worker is made once a quarantined worker, still
// heartbeating a lease, is heard from after its quarantine ends, though
// what the daemon hears first is a heartbeat and not a claim. The clock
// moves only when the test moves it, so the offer starts to wait while
// the quarantine holds.
func TestHeartbeatAfterQuarantineWakesRemoteOnlyOffer(t *testing.T) {
	const quarantine = time.Minute
	cfg := Config{RemoteOnly: true, LeaseTTL: time.Hour, QuarantineAfter: 1, QuarantineFor: quarantine, TripAfter: 100, RemoteAttempts: 1}
	advance := fakeClock(&cfg)
	d := newTestDispatcher(t, cfg)
	d.claim("w1")
	// w1 leases one unit and fails another, which quarantines it.
	leased := testScenario(t, 56)
	leasedV := startExecute(d, leased)
	gl := claimSoon(t, d, "w1")
	failedV := startExecute(d, testScenario(t, 57))
	gf := claimSoon(t, d, "w1")
	if _, err := d.Result(gf.LeaseID, ResultMsg{Fingerprint: gf.Unit.Fingerprint, Error: "flaky"}); err != nil {
		t.Fatal(err)
	}
	if v := waitVerdict(t, failedV); !errors.Is(v.err, errExhausted) {
		t.Fatalf("failed unit's verdict %+v, want its exhaustion", v)
	}
	if st := d.Stats(); st.QuarantinedWorkers != 1 || st.LiveWorkers != 0 {
		t.Fatalf("QuarantinedWorkers=%d LiveWorkers=%d, want 1/0", st.QuarantinedWorkers, st.LiveWorkers)
	}

	ctx := &gateCtx{Context: context.Background(), waiting: make(chan struct{})}
	sc := testScenario(t, 58)
	offeredV := make(chan execVerdict, 1)
	go func() {
		out, handled, err := d.Execute(ctx, sc, sc.Fingerprint(), 99)
		offeredV <- execVerdict{out, handled, err}
	}()
	select {
	case <-ctx.waiting:
	case <-time.After(10 * time.Second):
		t.Fatal("the remote-only offer never started to wait")
	}
	advance(quarantine)
	if _, ok := d.Heartbeat(gl.LeaseID); !ok {
		t.Fatal("the leased unit's heartbeat found its lease gone")
	}
	g := claimSoon(t, d, "w1")
	if g.Unit.Fingerprint != sc.Fingerprint() {
		t.Fatalf("granted %q, want the unit offered after the quarantine", g.Unit.Fingerprint)
	}
	for _, done := range []struct {
		g Grant
		v <-chan execVerdict
	}{{g, offeredV}, {gl, leasedV}} {
		if _, err := d.Result(done.g.LeaseID, resultFor(t, done.g.Unit.Fingerprint, 1)); err != nil {
			t.Fatal(err)
		}
		if v := waitVerdict(t, done.v); !v.handled || v.err != nil {
			t.Fatalf("verdict %+v, want the remote outcome", v)
		}
	}
	if st := d.Stats(); st.Offered != 3 || st.Leases != 3 {
		t.Errorf("Offered=%d Leases=%d, want 3/3", st.Offered, st.Leases)
	}
}

// TestWorkerClaimsAgainAtOnce: after an empty claim the daemon held, the
// worker claims again with no pause. After a failed claim it backs off
// by the schedule keyed by its ID: a 503, or a 204 without the held
// header, which a daemon that does not hold claims answers at once. The
// stub answers a held 204 twice, 503 twice and an unheld 204, and then
// holds the claim as the daemon does. PollInterval, which paces nothing
// now, is an hour.
func TestWorkerClaimsAgainAtOnce(t *testing.T) {
	type answer struct {
		status int
		held   bool
	}
	script := []answer{
		{http.StatusNoContent, true}, {http.StatusNoContent, true},
		{http.StatusServiceUnavailable, false}, {http.StatusServiceUnavailable, false},
		{http.StatusNoContent, false},
	}
	arrivals := make(chan time.Time, len(script)+1)
	var claims atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		at := time.Now()
		_, _ = io.Copy(io.Discard, r.Body)
		i := int(claims.Add(1)) - 1
		if i <= len(script) {
			arrivals <- at
		}
		if i < len(script) {
			if script[i].held {
				w.Header().Set(claimHeldHeader, "1")
			}
			w.WriteHeader(script[i].status)
			return
		}
		<-r.Context().Done()
	}))
	defer srv.Close()

	const backoff = 20 * time.Millisecond
	w, err := NewWorker(WorkerConfig{BaseURL: srv.URL, ID: "w1", PollInterval: time.Hour, RetryBackoff: backoff})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck
	}()
	var at []time.Time
	for len(at) <= len(script) {
		select {
		case a := <-arrivals:
			at = append(at, a)
		case <-time.After(10 * time.Second):
			t.Fatalf("claim %d never came (answers so far: %v)", len(at)+1, script[:len(at)])
		}
	}
	cancel()
	<-done

	for i, failed := range []int{2, 3, 4} {
		if gap, min := at[failed+1].Sub(at[failed]), engine.RetryDelay(backoff, "w1", i); gap < min {
			t.Errorf("claim %d came %v after failed claim %d, before the %v backoff", failed+2, gap, failed+1, min)
		}
	}
	if st := w.Stats(); st.EmptyPolls != 2 || st.ClaimFailures != 3 {
		t.Errorf("EmptyPolls=%d ClaimFailures=%d, want 2/3", st.EmptyPolls, st.ClaimFailures)
	}
}
