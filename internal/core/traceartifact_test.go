package core

import (
	"reflect"
	"testing"

	"suit/internal/dvfs"
)

// resetTraceArtifacts empties the shared trace-artifact store, so the
// next Run starts cold. Counters keep running; tests compare deltas.
func resetTraceArtifacts() {
	s := traceArtifacts
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = map[string]*traceArtifact{}
	s.order = nil
	s.usage = 0
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
