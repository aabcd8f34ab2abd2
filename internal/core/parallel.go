package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"suit/internal/engine"
	"suit/internal/workload"
)

// Fingerprint returns the canonical description of the scenario used as
// the engine's memoization key (its seed derives from SeedKey). Two
// scenarios with equal fingerprints produce equal outcomes, so the
// fingerprint must cover every field that influences the simulation —
// including a zero Seed, which marks the scenario as wanting an
// engine-derived seed.
func (s Scenario) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chip=%s|kind=%s|cores=%d|bench=%s", s.Chip.Name, s.Kind, s.Cores, benchFingerprint(s.Bench))
	for _, cb := range s.CoBenches {
		fmt.Fprintf(&b, "|co=%s", benchFingerprint(cb))
	}
	fmt.Fprintf(&b, "|aging=%t|instr=%d|seed=%d|timeline=%t|sample=%g",
		s.SpendAging, s.Instructions, s.Seed, s.RecordTimeline, float64(s.SampleEvery))
	if s.Params != nil {
		p := s.Params
		fmt.Fprintf(&b, "|params=%g/%g/%d/%g",
			float64(p.Deadline), float64(p.TimeSpan), p.MaxExceptions, p.DeadlineFactor)
	}
	return b.String()
}

// SeedKey is the scenario's recording key: what its trace streams
// depend on besides the seed — the workload, cores, co-runners and
// instructions, each as Run reads it. Chip, Kind, Params, SpendAging
// and the recording flags never enter it. The engine derives a job's
// seed from it (engine.DeriveSeed), so every Seed == 0 scenario that
// replays one workload's recording takes one seed under one base seed
// — one recording per workload, replayed under every strategy and
// setting as the paper does (§5.1, §6.2) — and shares its traces and
// baseline through the artifact store (traceartifact.go).
func (s Scenario) SeedKey() string {
	instr := s.Instructions
	if instr == 0 {
		instr = defaultInstructions(s.Bench)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cores=%d|instr=%d|bench=%s", max(s.Cores, 1), instr, benchFingerprint(s.Bench))
	for _, cb := range s.CoBenches {
		fmt.Fprintf(&b, "|co=%s", benchFingerprint(cb))
	}
	return b.String()
}

// benchFingerprint canonicalises a benchmark. Named workloads from the
// registry are fully determined by their name, but ad-hoc benchmarks
// (synthetic traces in tests and ablations) may reuse names, so the
// arrival-model parameters are spelled out. The NoSIMD map is emitted in
// fixed family order — never by map iteration.
func benchFingerprint(b workload.Benchmark) string {
	return fmt.Sprintf("%s/%d/%g/%g/%g/%g/%d/%g/%g/%d/%d/%t/%g/%g",
		b.Name, b.Suite, b.IPC, b.IMULFraction,
		b.BurstEvery, b.BurstLen, b.BurstIntraGap, b.BurstSigma, b.PoissonGap,
		b.BurstOp, b.DiffuseOp, b.TEE,
		b.NoSIMD[workload.Intel], b.NoSIMD[workload.AMD])
}

// RunJob adapts Run to the engine's job signature: scenarios with an
// explicit Seed keep it; a zero Seed takes the engine-derived one (hash
// of SeedKey + base seed), so every sweep point that replays one
// workload's recording gets the same deterministic streams. The
// simulator itself is not context-aware, so a cancelled job finishes
// its current simulation before the worker returns; the event loop's
// step bound keeps every simulation finite.
// Exported so callers that need their own engine instance — the suitd
// service keeps one with its own cache and stats — run scenarios
// exactly like the process-wide engine does.
func RunJob(_ context.Context, sc Scenario, seed uint64) (Outcome, error) {
	if sc.Seed == 0 {
		sc.Seed = seed
	}
	return Run(sc)
}

var (
	engMu      sync.Mutex
	sharedEng  *engine.Engine[Scenario, Outcome]
	sharedOpts engine.Options
	sharedCtx  context.Context
)

// SetEngineOptions replaces the process-wide evaluation engine (worker
// count, base seed, disk cache, progress writer). Call it once at
// startup, before the first RunAll; the in-memory memo of the previous
// engine is discarded.
func SetEngineOptions(o engine.Options) {
	engMu.Lock()
	defer engMu.Unlock()
	sharedOpts = o
	sharedEng = engine.New(Scenario.Fingerprint, RunJob, o)
}

func getEngine() *engine.Engine[Scenario, Outcome] {
	engMu.Lock()
	defer engMu.Unlock()
	if sharedEng == nil {
		sharedEng = engine.New(Scenario.Fingerprint, RunJob, sharedOpts)
	}
	return sharedEng
}

// SetRunContext installs the context every subsequent RunAll runs
// under, letting commands tie sweeps to signal handling: cancelling it
// (e.g. on SIGINT) stops dispatch and returns partial results plus the
// context error; finished jobs are already in the disk cache, if one
// is configured. nil restores context.Background().
func SetRunContext(ctx context.Context) {
	engMu.Lock()
	defer engMu.Unlock()
	sharedCtx = ctx
}

func runContext() context.Context {
	engMu.Lock()
	defer engMu.Unlock()
	if sharedCtx == nil {
		return context.Background()
	}
	return sharedCtx
}

// RunAll evaluates the scenarios through the shared parallel engine and
// returns outcomes in scenario order. Results are memoized by
// fingerprint for the life of the process (and on disk when configured),
// and are identical at any worker count. The first failed scenario
// fails the call with an error naming its fingerprint; a cancelled run
// context returns the partial outcomes with the context error.
func RunAll(scs []Scenario) ([]Outcome, error) {
	return getEngine().Run(runContext(), scs)
}

// EngineStats reports the shared engine's cumulative job and cache-hit
// accounting.
func EngineStats() engine.Stats {
	return getEngine().Stats()
}
