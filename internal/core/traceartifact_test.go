package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"suit/internal/dvfs"
	"suit/internal/engine"
	"suit/internal/strategy"
	"suit/internal/units"
	"suit/internal/workload"
)

// resetTraceArtifacts empties the shared artifact store, so the
// next Run starts cold. Counters keep running; tests compare deltas.
func resetTraceArtifacts() {
	s := traceArtifacts
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = map[string]*artifact{}
	s.order = nil
	s.usage = 0
}

// traceArtifactStats is a snapshot of the store's counters.
type traceArtifactStats struct {
	Hits, Misses, Evictions uint64
	ResidentEvents          uint64
}

// traceArtifactStatsNow snapshots the shared artifact store; results
// never depend on its counters.
func traceArtifactStatsNow() traceArtifactStats {
	s := traceArtifacts
	s.mu.Lock()
	defer s.mu.Unlock()
	return traceArtifactStats{Hits: s.hits, Misses: s.misses, Evictions: s.evictions, ResidentEvents: s.usage}
}

// TestTraceArtifactCacheSecondRunHitsOnly asserts the tentpole cache
// property: re-running an identical scenario performs zero trace
// generation — every trace request hits an existing artifact — and the
// outcome is bitwise-identical.
func TestTraceArtifactCacheSecondRunHitsOnly(t *testing.T) {
	sc := Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "557.xz"),
		Kind: KindFV, SpendAging: true, Instructions: 20_000_000, Seed: 42}

	// First run warms the store (it may itself hit run/base sharing).
	first := run(t, sc)
	before := traceArtifactStatsNow()

	second := run(t, sc)
	after := traceArtifactStatsNow()

	if misses := after.Misses - before.Misses; misses != 0 {
		t.Errorf("second identical run generated %d traces, want 0 (all artifact hits)", misses)
	}
	if hits := after.Hits - before.Hits; hits == 0 {
		t.Error("second identical run recorded no artifact hits")
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached-trace run diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestTraceArtifactRunBaseShare asserts the guaranteed within-point
// win: a single Run requests run and baseline traces from the same
// (bench, total, seed) triple, so the baseline's requests hit the run's
// freshly built artifacts instead of regenerating them.
func TestTraceArtifactRunBaseShare(t *testing.T) {
	resetTraceArtifacts()

	before := traceArtifactStatsNow()
	run(t, Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "525.x264"),
		Kind: KindFV, Instructions: 20_000_000, Seed: 7})
	after := traceArtifactStatsNow()

	if hits := after.Hits - before.Hits; hits == 0 {
		t.Error("run/baseline machines did not share a single trace artifact")
	}
}

// TestTraceArtifactEviction forces the event budget down so a second
// distinct artifact evicts the first, and checks the store's resident
// size stays within budget while results remain correct.
func TestTraceArtifactEviction(t *testing.T) {
	resetTraceArtifacts()
	old := traceArtifactBudget
	traceArtifactBudget = 1 // any second completed artifact evicts the first
	defer func() { traceArtifactBudget = old }()

	sc := Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "557.xz"),
		Kind: KindFV, Instructions: 20_000_000}
	before := traceArtifactStatsNow()
	sc.Seed = 1
	a := run(t, sc)
	sc.Seed = 2
	run(t, sc)
	after := traceArtifactStatsNow()

	if after.Evictions == before.Evictions {
		t.Error("shrunken budget triggered no evictions")
	}
	// The store keeps at least one artifact (len(order) > 1 guard), so
	// residency can exceed a pathological budget by one artifact but
	// must not accumulate.
	if after.ResidentEvents == 0 {
		t.Error("store evicted its only artifact; the newest entry must survive")
	}

	// Eviction is lossless: rerunning the first scenario regenerates
	// bit-identically.
	sc.Seed = 1
	if b := run(t, sc); !reflect.DeepEqual(a, b) {
		t.Errorf("post-eviction rerun diverged:\nfirst: %+v\nrerun: %+v", a, b)
	}
}

// seedOf is the seed an engine under baseSeed derives for sc.
func seedOf(t *testing.T, sc Scenario, baseSeed uint64) uint64 {
	t.Helper()
	e := engine.New(Scenario.Fingerprint,
		func(_ context.Context, _ Scenario, seed uint64) (uint64, error) { return seed, nil },
		engine.Options{Workers: 1, BaseSeed: baseSeed})
	seeds, err := e.Run(context.Background(), []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	return seeds[0]
}

// TestSeedKeyIsTheRecordingKey: through the engine, a Seed == 0
// scenario's seed follows its recording — workload, cores, co-runners,
// instructions and the base seed — and nothing else.
func TestSeedKeyIsTheRecordingKey(t *testing.T) {
	xz, gcc, cam4 := bench(t, "557.xz"), bench(t, "502.gcc"), bench(t, "527.cam4")
	p := strategy.ParamsB()
	ref := Scenario{Chip: dvfs.XeonSilver4208(), Bench: xz, Kind: KindFV, Cores: 2,
		CoBenches: []workload.Benchmark{gcc}, Instructions: 5_000_000}
	want := seedOf(t, ref, 1)

	type edit struct {
		field string
		apply func(*Scenario)
	}
	for _, e := range []edit{
		{"chip", func(s *Scenario) { s.Chip = dvfs.IntelI9_9900K() }},
		{"kind", func(s *Scenario) { s.Kind = KindEmul }},
		{"params", func(s *Scenario) { s.Params = &p }},
		{"spendAging", func(s *Scenario) { s.SpendAging = true }},
	} {
		sc := ref
		e.apply(&sc)
		if sc.Fingerprint() == ref.Fingerprint() {
			t.Fatalf("%s: the edit left the fingerprint unchanged", e.field)
		}
		if got := seedOf(t, sc, 1); got != want {
			t.Errorf("scenarios differing only in %s derived seeds %d and %d", e.field, got, want)
		}
	}
	for _, e := range []edit{
		{"workload", func(s *Scenario) { s.Bench = cam4 }},
		{"cores", func(s *Scenario) { s.Cores = 1 }},
		{"co-runners", func(s *Scenario) { s.CoBenches = []workload.Benchmark{cam4} }},
		{"instructions", func(s *Scenario) { s.Instructions = 6_000_000 }},
	} {
		sc := ref
		e.apply(&sc)
		if got := seedOf(t, sc, 1); got == want {
			t.Errorf("scenarios differing in %s derived one seed %d", e.field, got)
		}
	}
	if got := seedOf(t, ref, 2); got == want {
		t.Errorf("base seeds 1 and 2 derived one seed %d", got)
	}
}

// TestSharedBaselineIsExact: outcomes that share recordings and a
// memoized baseline through the store equal, bit for bit, the same
// scenarios run cold — an empty store and a budget of one event, so
// every trace is regenerated and every baseline stepped anew.
func TestSharedBaselineIsExact(t *testing.T) {
	chip := dvfs.XeonSilver4208()
	x264, xz := bench(t, "525.x264"), bench(t, "557.xz")
	var scs []Scenario
	for _, cores := range []int{1, 4} {
		for _, k := range []StrategyKind{KindFV, KindEmul, KindDynamic} {
			scs = append(scs, Scenario{Chip: chip, Bench: x264, Kind: k, Cores: cores,
				SpendAging: true, Instructions: 5_000_000, Seed: 11})
		}
	}
	scs = append(scs, Scenario{Chip: chip, Bench: x264, Kind: KindFV, Cores: 2,
		CoBenches: []workload.Benchmark{xz}, SpendAging: true, Instructions: 5_000_000, Seed: 11})

	resetTraceArtifacts()
	warm := make([]Outcome, len(scs))
	for i, sc := range scs {
		warm[i] = run(t, sc)
	}

	old := traceArtifactBudget
	traceArtifactBudget = 1
	defer func() { traceArtifactBudget = old }()
	for i, sc := range scs {
		resetTraceArtifacts()
		if cold := run(t, sc); !reflect.DeepEqual(warm[i], cold) {
			t.Errorf("%s/%s at %d cores: shared outcome differs from the cold run:\nshared: %+v\ncold:   %+v",
				sc.Bench.Name, sc.Kind, sc.Cores, warm[i], cold)
		}
	}
}

// TestRecordingFlagsKeepTheirOwnBaseline: a RecordTimeline or
// SampleEvery scenario replays a plain scenario's traces but never
// takes its baseline, whose result carries no timeline or samples.
func TestRecordingFlagsKeepTheirOwnBaseline(t *testing.T) {
	plain := Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "VLC"), Kind: KindFV,
		SpendAging: true, Instructions: 5_000_000, Seed: 5}
	timeline, sampled := plain, plain
	timeline.RecordTimeline = true
	sampled.SampleEvery = units.Microseconds(100)

	resetTraceArtifacts()
	run(t, plain)
	var outs []Outcome
	for _, sc := range []Scenario{timeline, sampled} {
		before := traceArtifactStatsNow()
		outs = append(outs, run(t, sc))
		// Its one trace is the plain scenario's; its baseline is its own.
		if misses := traceArtifactStatsNow().Misses - before.Misses; misses != 1 {
			t.Errorf("timeline=%t sample=%v: %d store misses, want 1 (its own baseline)",
				sc.RecordTimeline, sc.SampleEvery, misses)
		}
	}
	if len(outs[1].Base.Samples) == 0 {
		t.Error("the SampleEvery scenario's baseline recorded no samples")
	}
	for i, sc := range []Scenario{timeline, sampled} {
		resetTraceArtifacts()
		if cold := run(t, sc); !reflect.DeepEqual(outs[i], cold) {
			t.Errorf("timeline=%t sample=%v: outcome differs from the cold run", sc.RecordTimeline, sc.SampleEvery)
		}
	}
}

// TestScalarKindsShareTheStockBaseline: e and noSIMD runs step
// scalar-build traces, but their baseline is the stock build's, the
// very result fV's scenario memoized.
func TestScalarKindsShareTheStockBaseline(t *testing.T) {
	fv := Scenario{Chip: dvfs.XeonSilver4208(), Bench: bench(t, "525.x264"), Kind: KindFV,
		Cores: 2, SpendAging: true, Instructions: 5_000_000, Seed: 3}
	resetTraceArtifacts()
	want := run(t, fv).Base
	for _, k := range []StrategyKind{KindEmul, KindNoSIMD} {
		sc := fv
		sc.Kind = k
		before := traceArtifactStatsNow()
		o := run(t, sc)
		// Only its scalar-build traces, one per core, are new.
		if misses := traceArtifactStatsNow().Misses - before.Misses; misses != uint64(sc.Cores) {
			t.Errorf("%s: %d store misses, want %d (its run traces only)", k, misses, sc.Cores)
		}
		if &o.Base.PerCore[0] != &want.PerCore[0] || !reflect.DeepEqual(o.Base, want) {
			t.Errorf("%s: baseline is not fV's memoized result", k)
		}
	}
}

// TestSharedBaselineStaysUnwritten: every outcome of one recording
// shares the memoized baseline's slices (PerCore, Faults, Timeline,
// Samples), so no reader may write them. A sweep through the engine
// with a disk cache, which encodes every outcome, and the suite
// aggregation must leave the memoized result equal to a cold one.
func TestSharedBaselineStaysUnwritten(t *testing.T) {
	chip := dvfs.XeonSilver4208()
	grid := SweepGrid(chip)[:4]
	var scs []Scenario
	for i := range grid {
		scs = append(scs, Scenario{Chip: chip, Bench: bench(t, "525.x264"), Kind: KindFV, Cores: 4,
			SpendAging: true, Instructions: 2_000_000, Params: &grid[i],
			SampleEvery: units.Microseconds(50)})
	}
	resetTraceArtifacts()
	SetEngineOptions(engine.Options{Workers: 2, BaseSeed: 9, CacheDir: t.TempDir()})
	defer SetEngineOptions(engine.Options{})
	outs, err := RunAll(scs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs[1:] {
		if &o.Base.PerCore[0] != &outs[0].Base.PerCore[0] || &o.Base.Samples[0] != &outs[0].Base.Samples[0] {
			t.Fatal("grid points of one recording did not share the memoized baseline")
		}
	}
	if _, err := EvaluateSuite(chip, KindFV, 1, true, 2_000_000, 9); err != nil {
		t.Fatal(err)
	}

	sc := scs[0]
	sc.Seed = engine.DeriveSeed(9, sc.SeedKey())
	memo := run(t, sc).Base
	if &memo.PerCore[0] != &outs[0].Base.PerCore[0] {
		t.Fatal("the memoized baseline was evicted; the check below would compare two cold runs")
	}
	resetTraceArtifacts()
	if cold := run(t, sc).Base; !reflect.DeepEqual(memo, cold) {
		t.Errorf("memoized baseline changed after its readers ran:\nmemo: %+v\ncold: %+v", memo, cold)
	}
}

// TestSharedBuildPanicReleasesWaiters: a build that panics must not
// leave its key blocked. A request waiting on it gets an error, and a
// later request for the same key builds afresh; both return promptly.
func TestSharedBuildPanicReleasesWaiters(t *testing.T) {
	defer resetTraceArtifacts()
	const key = "test|panicking build"
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		shared(key, func() (int, uint64, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	hits := traceArtifactStatsNow().Hits
	waiter := make(chan error, 1)
	go func() {
		_, err := shared(key, func() (int, uint64, error) { return 1, 1, nil })
		waiter <- err
	}()
	// Let the waiter join the in-flight build before it panics.
	for traceArtifactStatsNow().Hits == hits {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("builder recovered %v, want its own panic", p)
	}

	select {
	case err := <-waiter:
		if !errors.Is(err, errArtifactPanicked) {
			t.Errorf("waiter got %v, want errArtifactPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a request waiting on a panicked build never returned")
	}

	again := make(chan int, 1)
	go func() {
		v, err := shared(key, func() (int, uint64, error) { return 2, 1, nil })
		if err != nil {
			t.Errorf("request after the panic: %v", err)
		}
		again <- v
	}()
	select {
	case v := <-again:
		if v != 2 {
			t.Errorf("request after the panic got %d, want a fresh build's 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a request after a panicked build never returned")
	}
}
