package core

import (
	"fmt"
	"strings"
	"sync"

	"suit/internal/trace"
	"suit/internal/workload"
)

// This file implements the shared trace-artifact store: a process-wide,
// content-addressed cache of generated instruction traces. A sweep
// point's run machine and baseline machine request byte-identical
// traces (same benchmark, instruction count and derived seed), and
// within one process several sweep points can share a (workload, seed)
// pair too — regenerating a 50k-event stream for each requester is pure
// waste. The store builds each distinct artifact exactly once
// (single-flight) and hands every requester the same immutable
// *trace.Trace; the simulator treats traces as read-only, so sharing
// one pointer across machines and engine workers is race-free.
//
// Artifacts are keyed by the full generative input — every field of the
// trace.Spec the benchmark expands to, plus the post-generation noSIMD
// filter — so two requests share an artifact if and only if generation
// would have produced identical bytes. The key deliberately ignores
// chip and strategy: those live outside trace generation.
//
// Eviction is FIFO over completed artifacts, bounded by a total-event
// budget: a sweep touches each (workload, seed) pair in a burst (run +
// baseline machines of one point, then possibly neighbouring points)
// and never returns to it, so retaining the newest artifacts is enough
// and memory stays bounded on arbitrarily long sweeps. Hit/miss
// counters are telemetry only — results never depend on cache state,
// and an evicted artifact is simply regenerated bit-identically.

// traceArtifactBudget bounds the store's resident size in trace events
// (~16 bytes each). A var so tests can force eviction cheaply.
var traceArtifactBudget uint64 = 8 << 20

// traceArtifact is one store entry. ready closes when generation
// finished; tr/err are immutable afterwards.
type traceArtifact struct {
	ready chan struct{}
	tr    *trace.Trace
	err   error
}

type traceArtifactStore struct {
	mu      sync.Mutex
	entries map[string]*traceArtifact
	order   []string // completed-key FIFO, eviction order
	usage   uint64   // total events of completed entries

	hits, misses, evictions uint64
}

var traceArtifacts = &traceArtifactStore{
	entries: map[string]*traceArtifact{},
}

// traceArtifactStats is a snapshot of the store's counters.
type traceArtifactStats struct {
	Hits, Misses, Evictions uint64
	ResidentEvents          uint64
}

// traceArtifactStatsNow snapshots the shared trace-artifact cache
// (telemetry for tests; results never depend on it).
func traceArtifactStatsNow() traceArtifactStats {
	s := traceArtifacts
	s.mu.Lock()
	defer s.mu.Unlock()
	return traceArtifactStats{Hits: s.hits, Misses: s.misses, Evictions: s.evictions, ResidentEvents: s.usage}
}

// artifactKey content-addresses one generation request: the expanded
// trace.Spec (name, total, IPC, seed and the concrete source list) plus
// the noSIMD post-filter. %#v on the source values spells out their
// concrete type and every field, so any parameter change changes the
// key.
func artifactKey(spec trace.Spec, nosimd bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%g|%d|%v", spec.Name, spec.Total, spec.IPC, spec.Seed, nosimd)
	for _, src := range spec.Sources {
		fmt.Fprintf(&b, "|%#v", src)
	}
	return b.String()
}

// sharedTrace returns the trace for (bench, total, seed), optionally
// noSIMD-filtered, through the artifact store.
func sharedTrace(b workload.Benchmark, total, seed uint64, nosimd bool) (*trace.Trace, error) {
	s := traceArtifacts
	s.mu.Lock()
	key := artifactKey(b.TraceSpec(total, seed), nosimd)
	if a, ok := s.entries[key]; ok {
		s.hits++
		s.mu.Unlock()
		<-a.ready
		return a.tr, a.err
	}
	a := &traceArtifact{ready: make(chan struct{})}
	s.entries[key] = a
	s.misses++
	s.mu.Unlock()

	a.tr, a.err = b.GenerateTrace(total, seed)
	if a.err == nil && nosimd {
		a.tr = a.tr.WithoutSIMD()
	}
	close(a.ready)

	s.mu.Lock()
	defer s.mu.Unlock()
	if a.err != nil {
		delete(s.entries, key)
		return nil, a.err
	}
	s.usage += uint64(len(a.tr.Events))
	s.order = append(s.order, key)
	for s.usage > traceArtifactBudget && len(s.order) > 1 {
		victim := s.order[0]
		s.order = s.order[1:]
		if v, ok := s.entries[victim]; ok {
			s.usage -= uint64(len(v.tr.Events))
			delete(s.entries, victim)
			s.evictions++
		}
	}
	return a.tr, a.err
}
