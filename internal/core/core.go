// Package core is the SUIT system evaluation engine: it assembles a chip
// model, workload traces, an operating strategy and the guardband-derived
// efficient curve into simulation runs, and reports the paper's metrics —
// performance, power and efficiency changes relative to the pre-SUIT
// baseline (§6.2, §6.3).
//
// This is the top of the stack: everything below (trace generation, DVFS
// and power models, the event-driven machine, the out-of-order IMUL study)
// plugs in here, and every Table 6 / Figure 16 cell is one Scenario.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"suit/internal/cpu"
	"suit/internal/dvfs"
	"suit/internal/emul"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/metrics"
	"suit/internal/strategy"
	"suit/internal/trace"
	"suit/internal/uarch"
	"suit/internal/units"
	"suit/internal/workload"
)

// StrategyKind selects an operating strategy (§4.3) or a special
// configuration of the evaluation.
type StrategyKind string

// The strategies of the evaluation. KindNoSIMD is the recompiled-without-
// SIMD configuration of §6.7; KindUnsafe is blind undervolting on a
// pre-SUIT CPU (the insecure practice SUIT replaces).
const (
	KindFV       StrategyKind = "fV"
	KindFreq     StrategyKind = "f"
	KindVolt     StrategyKind = "V"
	KindEmul     StrategyKind = "e"
	KindDynamic  StrategyKind = "dyn"
	KindAdaptive StrategyKind = "adaptive"
	KindNoSIMD   StrategyKind = "noSIMD"
	KindUnsafe   StrategyKind = "unsafe"
)

// Scenario is one evaluation cell.
type Scenario struct {
	Chip  dvfs.Chip
	Bench workload.Benchmark
	Kind  StrategyKind
	// Cores is the number of workload copies pinned to cores (the 𝒜₁ vs
	// 𝒜₄ distinction of §6.4). Default 1.
	Cores int
	// CoBenches pins additional, different workloads to further cores —
	// heterogeneous co-location (§6.2 pins one recorded stream per
	// core). Performance and power are still reported for the primary
	// workload's machine.
	CoBenches []workload.Benchmark
	// SpendAging selects the −97 mV offset (20 % of the aging guardband
	// on top of the −70 mV instruction variation, §3.1).
	SpendAging bool
	// Instructions per core; defaults to 2·10⁹ for SPEC and 2·10⁸ for
	// network workloads.
	Instructions uint64
	// Params overrides the strategy parameters (Table 7 defaults
	// otherwise, chosen by chip).
	Params *strategy.Params
	Seed   uint64
	// RecordTimeline captures curve-switch events for figure rendering.
	RecordTimeline bool
	// SampleEvery samples the operating point on a fixed grid (figure
	// rendering; see cpu.Config.SampleEvery).
	SampleEvery units.Second
}

// Outcome is the result of one scenario against its baseline.
type Outcome struct {
	Base cpu.Result
	Run  cpu.Result
	// Change holds the performance and power deltas; Efficiency is the
	// paper's 1/(Δduration·Δpower) − 1.
	Change     metrics.Change
	Efficiency float64
	// EfficientShare is the time fraction on the efficient curve.
	EfficientShare float64
	// IMULOverhead is the hardened-IMUL slowdown applied (§6.1).
	IMULOverhead float64
	// Offset is the efficient-curve undervolt used.
	Offset units.Volt
}

// defaultInstructions picks the simulation length.
func defaultInstructions(b workload.Benchmark) uint64 {
	if b.Suite == workload.Network {
		return 200_000_000
	}
	return 2_000_000_000
}

// ParamsFor returns the Table 7 parameters for a chip: the slow frequency
// switching of ℬ needs the long-deadline set.
func ParamsFor(chip dvfs.Chip) strategy.Params {
	if chip.Transition.FreqDelay > units.Microseconds(100) {
		return strategy.ParamsB()
	}
	return strategy.ParamsAC()
}

// familyOf maps a chip to its Table 4 measurement column.
func familyOf(chip dvfs.Chip) workload.CPUFamily {
	if chip.Domains == dvfs.PerCoreFreq {
		return workload.AMD
	}
	return workload.Intel
}

// imulCache memoises the hardened-IMUL slowdown by mix key: the
// out-of-order study is deterministic per mix, and two benchmarks may
// share a name but not a mix.
var imulCache sync.Map // [2]uint64 → float64

// IMULOverheadFor returns the §6.1 slowdown of the 4-cycle IMUL for the
// benchmark, computed with the out-of-order model (Fig 14).
func IMULOverheadFor(b workload.Benchmark) (float64, error) {
	key := imulMixKey(b)
	if v, ok := imulCache.Load(key); ok {
		return v.(float64), nil
	}
	if bits, ok := imulBaked[key]; ok {
		// Constant-folded study result for a shipped mix (see
		// imultable.go); bit-identical to the live computation below by
		// the table's guard test.
		s := math.Float64frombits(bits)
		imulCache.Store(key, s)
		return s, nil
	}
	s, err := uarch.Slowdown(uarch.DefaultConfig(), b.Mix(), 200_000, 1, 4)
	if err != nil {
		return 0, err
	}
	if s < 0 {
		s = 0 // sampling noise cannot make the longer IMUL faster
	}
	imulCache.Store(key, s)
	return s, nil
}

// buildStrategy constructs the cpu.Strategy for a kind.
func buildStrategy(kind StrategyKind, p strategy.Params) (cpu.Strategy, error) {
	switch kind {
	case KindFV:
		return strategy.FV{P: p}, nil
	case KindFreq:
		return strategy.FreqOnly{P: p}, nil
	case KindVolt:
		return strategy.VoltOnly{P: p}, nil
	case KindEmul:
		return strategy.Emulation{}, nil
	case KindDynamic:
		return strategy.Dynamic{P: p}, nil
	case KindAdaptive:
		return &strategy.Adaptive{}, nil
	case KindNoSIMD:
		return strategy.AlwaysEfficient{}, nil
	case KindUnsafe:
		return strategy.Pinned{M: cpu.ModeE}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy kind %q", kind)
	}
}

// Run evaluates one scenario: the SUIT configuration and the pre-SUIT
// baseline run the same workload; the outcome reports the relative
// changes.
func Run(s Scenario) (Outcome, error) {
	if err := s.Bench.Validate(); err != nil {
		return Outcome{}, err
	}
	if s.Cores <= 0 {
		s.Cores = 1
	}
	if s.Cores+len(s.CoBenches) > s.Chip.Cores {
		return Outcome{}, fmt.Errorf("core: %d streams exceed %d cores",
			s.Cores+len(s.CoBenches), s.Chip.Cores)
	}
	for _, cb := range s.CoBenches {
		if err := cb.Validate(); err != nil {
			return Outcome{}, fmt.Errorf("core: co-runner: %w", err)
		}
	}
	// §4.3: instruction emulation is not possible for applications in
	// trusted execution environments — the kernel cannot map emulation
	// code into an enclave.
	if s.Bench.TEE && (s.Kind == KindEmul || s.Kind == KindDynamic) {
		return Outcome{}, fmt.Errorf("core: %s runs in a TEE; emulation-based strategies are unavailable (§4.3)", s.Bench.Name)
	}
	total := s.Instructions
	if total == 0 {
		total = defaultInstructions(s.Bench)
	}

	gb := guardband.Default()
	offset := gb.EfficientOffset(isa.FaultableMask, true, s.SpendAging)

	params := ParamsFor(s.Chip)
	if s.Params != nil {
		params = *s.Params
	}
	if err := params.Validate(); err != nil {
		return Outcome{}, err
	}
	strat, err := buildStrategy(s.Kind, params)
	if err != nil {
		return Outcome{}, err
	}

	// Per-core traces: SPEC-rate style copies with different seeds.
	bench := s.Bench
	fam := familyOf(s.Chip)
	if s.Kind == KindNoSIMD || s.Kind == KindEmul {
		// §6.2: emulation runs behave as if compiled without SIMD (the
		// replacements are the scalar code paths) plus per-trap costs;
		// the noSIMD build has the same throughput change and no
		// faultable instructions at all.
		bench.IPC *= 1 + bench.NoSIMD[fam]
	}
	// Trace generation goes through the shared artifact store
	// (traceartifact.go): the baseline below requests byte-identical
	// traces and receives the same immutable artifacts instead of a
	// regeneration, and concurrent sweep points sharing a (workload,
	// seed) pair coalesce on one build.
	traces := make([]*trace.Trace, s.Cores, s.Cores+len(s.CoBenches))
	for i := range traces {
		tr, err := sharedTrace(bench, total, s.Seed+uint64(i)*7919+1, s.Kind == KindNoSIMD)
		if err != nil {
			return Outcome{}, err
		}
		traces[i] = tr
	}

	imulOv, err := IMULOverheadFor(s.Bench)
	if err != nil {
		return Outcome{}, err
	}
	imulPerCore := make([]float64, s.Cores, s.Cores+len(s.CoBenches))
	for i := range imulPerCore {
		imulPerCore[i] = imulOv
	}
	// Heterogeneous co-runners: their own traces and IMUL overheads on
	// the remaining cores, scaled to the primary stream's duration so all
	// cores stay busy for the measured interval.
	for j, cb := range s.CoBenches {
		coTotal := uint64(float64(total) * cb.IPC / s.Bench.IPC)
		if coTotal == 0 {
			coTotal = total
		}
		tr, err := sharedTrace(cb, coTotal, s.Seed+uint64(s.Cores+j)*7919+1, false)
		if err != nil {
			return Outcome{}, err
		}
		traces = append(traces, tr)
		coOv, err := IMULOverheadFor(cb)
		if err != nil {
			return Outcome{}, err
		}
		imulPerCore = append(imulPerCore, coOv)
	}

	runCfg := cpu.Config{
		Chip:           s.Chip,
		Traces:         traces,
		Offset:         offset,
		Faults:         gb,
		HardenedIMUL:   true,
		IMULOverhead:   imulPerCore,
		ExceptionDelay: s.Chip.ExceptionDelay,
		Emul:           emul.NewCostModel(s.Chip.EmulCallDelay),
		AllowUnsafe:    s.Kind == KindUnsafe,
		Seed:           s.Seed,
		RecordTimeline: s.RecordTimeline,
		SampleEvery:    s.SampleEvery,
		// Artifact traces were validated once at generation; re-walking
		// them per machine would cost more than a sweep point's stepping.
		TrustedTraces: true,
	}
	if s.Kind == KindUnsafe {
		// A pre-SUIT part: stock IMUL, no hardening overhead.
		runCfg.HardenedIMUL = false
		runCfg.IMULOverhead = nil
	}

	// Baseline: the same workloads (stock compilation, stock IMUL) pinned
	// to the vendor curve at the TDP-sustainable state. For every kind
	// except noSIMD/emulation these requests hit the artifacts the run
	// traces were built from, so base and run machines step the very same
	// event arrays.
	baseTraces := make([]*trace.Trace, s.Cores, len(traces))
	for i := range baseTraces {
		tr, err := sharedTrace(s.Bench, total, s.Seed+uint64(i)*7919+1, false)
		if err != nil {
			return Outcome{}, err
		}
		baseTraces[i] = tr
	}
	for j, cb := range s.CoBenches {
		coTotal := uint64(float64(total) * cb.IPC / s.Bench.IPC)
		if coTotal == 0 {
			coTotal = total
		}
		tr, err := sharedTrace(cb, coTotal, s.Seed+uint64(s.Cores+j)*7919+1, false)
		if err != nil {
			return Outcome{}, err
		}
		baseTraces = append(baseTraces, tr)
	}
	baseCfg := runCfg
	baseCfg.Traces = baseTraces
	baseCfg.HardenedIMUL = false
	baseCfg.IMULOverhead = nil
	baseCfg.AllowUnsafe = false

	baseMachine, err := cpu.New(baseCfg, strategy.Pinned{M: cpu.ModeBase})
	if err != nil {
		return Outcome{}, err
	}
	runMachine, err := cpu.New(runCfg, strat)
	if err != nil {
		return Outcome{}, err
	}

	base, err := baseMachine.Run()
	if err != nil {
		return Outcome{}, err
	}
	run, err := runMachine.Run()
	if err != nil {
		return Outcome{}, err
	}

	if base.Duration <= 0 || run.Duration <= 0 {
		return Outcome{}, errors.New("core: degenerate run duration")
	}
	change := metrics.NewChange(
		float64(base.Duration), float64(run.Duration),
		float64(base.AvgPower), float64(run.AvgPower),
	)
	return Outcome{
		Base:           base,
		Run:            run,
		Change:         change,
		Efficiency:     change.Efficiency(),
		EfficientShare: run.EfficientShare(),
		IMULOverhead:   imulOv,
		Offset:         offset,
	}, nil
}
