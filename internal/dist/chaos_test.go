package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"suit/internal/core"
	"suit/internal/engine"
	"suit/internal/engine/faultinject"
)

// startServer mounts a dispatcher on an httptest server.
func startServer(t *testing.T, d *Dispatcher) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	d.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// waitLiveWorkers blocks until at least n workers have polled in, so a
// sweep started next actually offers units remotely instead of racing
// the first claim and falling back to local execution.
func waitLiveWorkers(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d.Stats().LiveWorkers >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%d workers never registered", n)
}

// localReference computes the byte-exact expected outcome JSON for a
// scenario, the way a single-process engine run would.
func localReference(t *testing.T, sc core.Scenario) []byte {
	t.Helper()
	out, err := core.RunJob(context.Background(), sc, engine.DeriveSeed(0, sc.Fingerprint()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// runWorker starts a worker and returns a stop function that waits for
// it to exit.
func runWorker(t *testing.T, cfg WorkerConfig) (stop func()) {
	t.Helper()
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck
	}()
	return func() {
		cancel()
		<-done
	}
}

// TestDistributedChaosByteIdentical is the chaos suite: a full engine
// sweep distributed to workers whose HTTP transports inject all five
// fault kinds — drops, delays, 500s with the effect applied, truncated
// bodies, duplicated deliveries — must store results byte-identical to
// a single-process run. Run under -race in CI (the dist-chaos job).
func TestDistributedChaosByteIdentical(t *testing.T) {
	var scenarios []core.Scenario
	for i := 0; i < 10; i++ {
		scenarios = append(scenarios, testScenario(t, i))
	}
	want := make(map[string][]byte, len(scenarios))
	for _, sc := range scenarios {
		want[sc.Fingerprint()] = localReference(t, sc)
	}

	d := NewDispatcher(Config{
		LeaseTTL:       500 * time.Millisecond,
		RemoteAttempts: 4,
		RetryBackoff:   5 * time.Millisecond,
		// Faults here are injected noise, not worker pathology: keep the
		// breakers from starving the test of its own chaos.
		QuarantineAfter: 50,
		TripAfter:       200,
	})
	defer d.Close()
	srv := startServer(t, d)

	// Three workers, each behind its own fault-laden transport; every
	// fault kind is in the palette, decided by a pure per-request hash.
	for i := 0; i < 3; i++ {
		tr := faultinject.NewTransport(faultinject.HTTPPlan{
			Seed:  uint64(1000 + i),
			Rate:  0.4,
			Kinds: faultinject.AllHTTPKinds,
			Times: 2,
			Delay: 2 * time.Millisecond,
		}, nil)
		stop := runWorker(t, WorkerConfig{
			BaseURL:        srv.URL,
			ID:             fmt.Sprintf("chaos-w%d", i),
			Slots:          2,
			ResultAttempts: 6,
			RetryBackoff:   5 * time.Millisecond,
			Client:         &http.Client{Transport: tr, Timeout: 10 * time.Second},
		})
		defer stop()
	}

	waitLiveWorkers(t, d, 1)

	// The production path: an engine whose remote hook is the
	// dispatcher. Anything the remote tier cannot finish falls back to
	// the identical local computation.
	eng := engine.New(core.Scenario.Fingerprint, core.RunJob, engine.Options{Workers: 4})
	eng.SetRemote(d.Execute)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := eng.Run(ctx, scenarios)
	if err != nil {
		t.Fatalf("distributed sweep failed under chaos: %v", err)
	}
	for i, sc := range scenarios {
		raw, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want[sc.Fingerprint()]) {
			t.Errorf("scenario %d (%s): distributed outcome differs from the single-process bytes", i, sc.Fingerprint())
		}
	}
	st := d.Stats()
	t.Logf("dispatcher: %+v", st)
	if st.Conflicts != 0 {
		t.Errorf("chaos produced %d conflicting results — determinism violation", st.Conflicts)
	}
	if st.Completed == 0 && st.LocalFallbacks == 0 {
		t.Error("nothing completed remotely or locally — the sweep result came from nowhere?")
	}
}

// TestWorkerKilledMidSweep: a worker that dies holding leases (its
// heartbeats stop mid-run) must not lose the sweep — leases expire,
// units reassign to the surviving worker, and every stored byte matches
// the single-process reference. The in-process half of the kill-worker
// e2e; scripts/suitd_smoke.sh SIGKILLs a real process.
func TestWorkerKilledMidSweep(t *testing.T) {
	var scenarios []core.Scenario
	for i := 0; i < 4; i++ {
		scenarios = append(scenarios, testScenario(t, 100+i))
	}
	want := make(map[string][]byte, len(scenarios))
	for _, sc := range scenarios {
		want[sc.Fingerprint()] = localReference(t, sc)
	}

	d := NewDispatcher(Config{
		LeaseTTL:       150 * time.Millisecond,
		RemoteAttempts: 6,
		RetryBackoff:   5 * time.Millisecond,
	})
	defer d.Close()
	srv := startServer(t, d)

	// The victim claims work and then "crashes": its run function blocks
	// until the worker is killed, so it dies holding a lease.
	victimCtx, killVictim := context.WithCancel(context.Background())
	victim, err := NewWorker(WorkerConfig{
		BaseURL: srv.URL,
		ID:      "victim",
		Slots:   2,
		runFn: func(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
			<-ctx.Done() // holds the lease until killed
			return core.Outcome{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		victim.Run(victimCtx) //nolint:errcheck
	}()
	waitLiveWorkers(t, d, 1)

	// Start the sweep against the victim alone.
	eng := engine.New(core.Scenario.Fingerprint, core.RunJob, engine.Options{Workers: 4})
	eng.SetRemote(d.Execute)
	type sweep struct {
		got []core.Outcome
		err error
	}
	sweepCh := make(chan sweep, 1)
	go func() {
		got, err := eng.Run(context.Background(), scenarios)
		sweepCh <- sweep{got, err}
	}()

	// Wait until the victim holds at least one lease, then kill it.
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().LeasedUnits == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d.Stats().LeasedUnits == 0 {
		t.Fatal("victim never claimed a lease")
	}
	killVictim()
	<-victimDone

	// A healthy worker arrives; expired leases reassign to it.
	stop := runWorker(t, WorkerConfig{
		BaseURL: srv.URL,
		ID:      "survivor",
		Slots:   2,
	})
	defer stop()

	var res sweep
	select {
	case res = <-sweepCh:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not finish after the worker was killed")
	}
	if res.err != nil {
		t.Fatalf("sweep error: %v", res.err)
	}
	for i, sc := range scenarios {
		raw, err := json.Marshal(res.got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want[sc.Fingerprint()]) {
			t.Errorf("scenario %d (%s): outcome differs from the single-process bytes after reassignment", i, sc.Fingerprint())
		}
	}
	st := d.Stats()
	if st.Expired == 0 {
		t.Errorf("no lease expired — the kill was not exercised (stats %+v)", st)
	}
}

// TestWorkerEndToEnd: one worker, no faults — the plain distributed
// happy path through real HTTP, heartbeats included.
func TestWorkerEndToEnd(t *testing.T) {
	d := NewDispatcher(Config{LeaseTTL: 200 * time.Millisecond, RetryBackoff: 5 * time.Millisecond})
	defer d.Close()
	srv := startServer(t, d)
	stop := runWorker(t, WorkerConfig{BaseURL: srv.URL, ID: "w1", Slots: 1})
	defer stop()

	var wg sync.WaitGroup
	scs := []core.Scenario{testScenario(t, 200), testScenario(t, 201)}
	outs := make([]core.Outcome, len(scs))
	errs := make([]error, len(scs))
	handleds := make([]bool, len(scs))
	for i, sc := range scs {
		wg.Add(1)
		go func(i int, sc core.Scenario) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			outs[i], handleds[i], errs[i] = d.Execute(ctx, sc, sc.Fingerprint(), engine.DeriveSeed(0, sc.Fingerprint()))
		}(i, sc)
	}
	wg.Wait()
	for i, sc := range scs {
		if errs[i] != nil {
			t.Fatalf("scenario %d: %v", i, errs[i])
		}
		if !handleds[i] {
			// Legal (the worker may not have polled yet at offer time) but
			// unexpected with a live worker; don't fail byte checks below.
			t.Logf("scenario %d fell back locally", i)
			continue
		}
		raw, err := json.Marshal(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, localReference(t, sc)) {
			t.Errorf("scenario %d: remote outcome differs from local bytes", i)
		}
	}
}
