package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"suit/internal/cpu"
	"suit/internal/strategy"
	"suit/internal/trace"
	"suit/internal/workload"
)

// This file implements the shared artifact store: a process-wide,
// content-addressed cache of what a scenario reads but does not own —
// its generated instruction traces and its baseline machine's result.
//
// A Seed == 0 scenario takes a seed derived from its recording key
// (Scenario.SeedKey): workload, cores, co-runners and instructions.
// Every scenario that replays one workload's recording — any chip,
// strategy, parameter setting or offset — therefore requests
// byte-identical traces, as the paper replays one recorded trace per
// benchmark under every setting (§5.1, §6.2); and every scenario that
// also shares the chip, offset and recording flags steps the same
// baseline machine over them. The store builds each distinct artifact
// exactly once (single-flight) and hands every requester the same
// immutable value: a *trace.Trace, which the simulator treats as
// read-only, or a cpu.Result, whose slices no reader writes. Sharing
// them across machines and engine workers is race-free.
//
// Trace artifacts are keyed by the full generative input — every field
// of the trace.Spec the benchmark expands to, plus the post-generation
// noSIMD filter — so two requests share an artifact if and only if
// generation would have produced identical bytes. A baseline is keyed
// by exactly what the base configuration reads: the chip, the keys of
// its traces, the offset, the seed and the recording flags.
//
// Eviction is FIFO over completed artifacts, bounded by one total-event
// budget. A sweep returns to its few recordings and baselines at every
// parameter point, and the newest artifacts are the ones it returns to,
// so FIFO keeps them while memory stays bounded on arbitrarily long
// sweeps. Hit/miss counters are telemetry only — results never depend
// on cache state, and an evicted artifact is simply rebuilt
// bit-identically.

// traceArtifactBudget bounds the store's resident size in trace events
// (~16 bytes each); a baseline result counts one event per slice
// element, plus one. A var so tests can force eviction cheaply.
var traceArtifactBudget uint64 = 8 << 20

// errArtifactPanicked is what requests waiting on a build get when the
// build panicked. The builder's own goroutine gets the panic.
var errArtifactPanicked = errors.New("core: shared artifact build panicked")

// artifact is one store entry. ready closes when its build finished or
// panicked; val, size and err are immutable afterwards.
type artifact struct {
	ready chan struct{}
	val   any
	size  uint64
	err   error
}

type artifactStore struct {
	mu      sync.Mutex
	entries map[string]*artifact
	order   []string // completed-key FIFO, eviction order
	usage   uint64   // total size of completed entries

	hits, misses, evictions uint64
}

var traceArtifacts = &artifactStore{
	entries: map[string]*artifact{},
}

// shared returns the artifact under key, building it on a miss.
// Concurrent requests for one key wait for one build. A build that
// fails or panics leaves no entry, so a later request builds afresh;
// its waiters get its error, or errArtifactPanicked.
func shared[T any](key string, build func() (T, uint64, error)) (T, error) {
	s := traceArtifacts
	s.mu.Lock()
	if a, ok := s.entries[key]; ok {
		s.hits++
		s.mu.Unlock()
		<-a.ready
		if a.err != nil {
			var zero T
			return zero, a.err
		}
		return a.val.(T), nil
	}
	a := &artifact{ready: make(chan struct{}), err: errArtifactPanicked}
	s.entries[key] = a
	s.misses++
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		close(a.ready)
		if a.err != nil {
			if s.entries[key] == a {
				delete(s.entries, key)
			}
			return
		}
		s.usage += a.size
		s.order = append(s.order, key)
		for s.usage > traceArtifactBudget && len(s.order) > 1 {
			victim := s.order[0]
			s.order = s.order[1:]
			if v, ok := s.entries[victim]; ok {
				s.usage -= v.size
				delete(s.entries, victim)
				s.evictions++
			}
		}
	}()
	v, size, err := build()
	a.val, a.size, a.err = v, size, err
	return v, err
}

// stream is one core's trace request: bench's recording of total
// instructions under seed, optionally noSIMD-filtered.
type stream struct {
	bench  workload.Benchmark
	total  uint64
	seed   uint64
	nosimd bool
	// key content-addresses the generation: the expanded trace.Spec
	// (name, total, IPC, seed and the concrete source list) plus the
	// noSIMD post-filter. %#v on the source values spells out their
	// concrete type and every field, so any parameter change changes
	// the key.
	key string
}

// newStream builds a stream with its key.
func newStream(b workload.Benchmark, total, seed uint64, nosimd bool) stream {
	spec := b.TraceSpec(total, seed)
	var k strings.Builder
	fmt.Fprintf(&k, "trace|%s|%d|%g|%d|%v", spec.Name, spec.Total, spec.IPC, spec.Seed, nosimd)
	for _, src := range spec.Sources {
		fmt.Fprintf(&k, "|%#v", src)
	}
	return stream{bench: b, total: total, seed: seed, nosimd: nosimd, key: k.String()}
}

// trace returns the stream's trace through the store.
func (st stream) trace() (*trace.Trace, error) {
	return shared(st.key, func() (*trace.Trace, uint64, error) {
		tr, err := st.bench.GenerateTrace(st.total, st.seed)
		if err != nil {
			return nil, 0, err
		}
		if st.nosimd {
			tr = tr.WithoutSIMD()
		}
		return tr, uint64(len(tr.Events)), nil
	})
}

// baselineKey content-addresses a baseline run: the chip (by name, as
// Scenario.Fingerprint identifies it), its streams' keys, and the rest
// of what core.Run's base configuration varies; the fields it leaves
// out are the same for every baseline.
func baselineKey(cfg cpu.Config, streams []stream) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base|%s|%g|%d|%t|%g", cfg.Chip.Name, float64(cfg.Offset), cfg.Seed, cfg.RecordTimeline, float64(cfg.SampleEvery))
	for _, st := range streams {
		b.WriteString("|")
		b.WriteString(st.key)
	}
	return b.String()
}

// sharedBaseline returns the result of the pre-SUIT baseline machine
// for cfg through the store; on a miss, cfg's Traces come from streams.
func sharedBaseline(cfg cpu.Config, streams []stream) (cpu.Result, error) {
	return shared(baselineKey(cfg, streams), func() (cpu.Result, uint64, error) {
		cfg.Traces = make([]*trace.Trace, len(streams))
		for i, st := range streams {
			tr, err := st.trace()
			if err != nil {
				return cpu.Result{}, 0, err
			}
			cfg.Traces[i] = tr
		}
		m, err := cpu.New(cfg, strategy.Pinned{M: cpu.ModeBase})
		if err != nil {
			return cpu.Result{}, 0, err
		}
		r, err := m.Run()
		if err != nil {
			return cpu.Result{}, 0, err
		}
		// Every outcome of this baseline shares these slices; clipped,
		// an append by one reader cannot write into another's view.
		r.PerCore = slices.Clip(r.PerCore)
		r.Faults = slices.Clip(r.Faults)
		r.Timeline = slices.Clip(r.Timeline)
		r.Samples = slices.Clip(r.Samples)
		size := 1 + len(r.PerCore) + len(r.Faults) + len(r.Timeline) + len(r.Samples)
		return r, uint64(size), nil
	})
}
