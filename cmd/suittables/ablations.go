package main

import (
	"fmt"
	"io"

	"suit/internal/core"
	"suit/internal/cpu"
	"suit/internal/dvfs"
	"suit/internal/emul"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/report"
	"suit/internal/strategy"
	"suit/internal/trace"
	"suit/internal/units"
	"suit/internal/workload"
)

// rawMachine runs one trace on CPU 𝒞 at the −97 mV SUIT design point
// without core.Run's baseline pairing, so an experiment can switch a
// machine-level mechanism off through mod.
func rawMachine(tr *trace.Trace, seed uint64, mod func(*cpu.Config), strat cpu.Strategy) (cpu.Result, error) {
	gb := guardband.Default()
	chip := dvfs.XeonSilver4208()
	cfg := cpu.Config{
		Chip:           chip,
		Traces:         []*trace.Trace{tr},
		Offset:         gb.EfficientOffset(isa.FaultableMask, true, true),
		Faults:         gb,
		HardenedIMUL:   true,
		ExceptionDelay: chip.ExceptionDelay,
		Emul:           emul.NewCostModel(chip.EmulCallDelay),
		Seed:           seed,
	}
	if mod != nil {
		mod(&cfg)
	}
	m, err := cpu.New(cfg, strat)
	if err != nil {
		return cpu.Result{}, err
	}
	return m.Run()
}

// emulatedTrapCost measures the §5.3 trap path on a simulated core: the
// extra time 2,000 emulated AESENC traps add to an otherwise identical
// stream, per trap.
func emulatedTrapCost() (units.Second, error) {
	const traps = 2000
	tr := &trace.Trace{Name: "traps", Total: 100_000_000, IPC: 2}
	for i := uint64(0); i < traps; i++ {
		tr.Events = append(tr.Events, trace.Event{Index: (i + 1) * 40_000, Op: isa.OpAESENC})
	}
	empty := &trace.Trace{Name: "empty", Total: tr.Total, IPC: tr.IPC}
	with, err := rawMachine(tr, 1, nil, strategy.Emulation{})
	if err != nil {
		return 0, err
	}
	without, err := rawMachine(empty, 1, nil, strategy.Emulation{})
	if err != nil {
		return 0, err
	}
	return (with.Duration - without.Duration) / traps, nil
}

// runAblations removes one design choice at a time (DESIGN.md "Design
// choices worth ablating"). Where the paper argues that a mechanism
// matters, a cell asserts the ordering it claims; the strategy and
// adaptive-deadline rows are printed for the record only: f alone edges
// out fV on 502.gcc, and the self-tuning deadline is a negative result.
func runAblations(c cfg, w io.Writer) ([]cell, error) {
	// A resetting deadline (§4.1) against a fixed-duration switchback:
	// with bursts slightly longer than the deadline, the fixed timer
	// switches back mid-burst and traps again.
	vlcTr, err := workload.VLC().GenerateTrace(c.netInstr, c.seed)
	if err != nil {
		return nil, err
	}
	fv := strategy.FV{P: strategy.ParamsAC()}
	resetting, err := rawMachine(vlcTr, c.seed, nil, fv)
	if err != nil {
		return nil, err
	}
	fixed, err := rawMachine(vlcTr, c.seed, func(cc *cpu.Config) { cc.NoDeadlineReset = true }, fv)
	if err != nil {
		return nil, err
	}

	// Hardened IMUL (§4.2) against trapping it like the rest of the
	// faultable set: an IMUL every ~560 instructions (x264-like hot
	// loops) would pin the CPU to the conservative curve.
	imulTr, err := trace.Generate(trace.Spec{
		Name: "imul-hot", Total: 50_000_000, IPC: 2, Seed: c.seed,
		Sources: []trace.Source{trace.Periodic{Op: isa.OpIMUL, Interval: 560}},
	})
	if err != nil {
		return nil, err
	}
	hardened, err := rawMachine(imulTr, c.seed, nil, fv)
	if err != nil {
		return nil, err
	}
	trapped, err := rawMachine(imulTr, c.seed, func(cc *cpu.Config) {
		cc.TrapIMUL = true
		cc.HardenedIMUL = false
	}, fv)
	if err != nil {
		return nil, err
	}

	spec, err := byName("527.cam4", "502.gcc", "557.xz")
	if err != nil {
		return nil, err
	}
	cam4, gcc, xz := spec[0], spec[1], spec[2]
	noThrash := strategy.ParamsAC()
	noThrash.DeadlineFactor = 1 // multiplying by 1 disables the extension
	xeon, i9 := dvfs.XeonSilver4208(), dvfs.IntelI9_9900K()
	scs := []core.Scenario{
		// Thrashing prevention on and off for 527.cam4, whose gaps
		// straddle the deadline.
		{Chip: xeon, Bench: cam4, Kind: core.KindFV},
		{Chip: xeon, Bench: cam4, Kind: core.KindFV, Params: &noThrash},
		// Per-core domains (𝒞) against one domain (𝒜) under four
		// co-running copies.
		{Chip: xeon, Bench: gcc, Kind: core.KindFV, Cores: 4},
		{Chip: i9, Bench: gcc, Kind: core.KindFV, Cores: 4},
		// fV against the single-knob strategies (§4.3).
		{Chip: xeon, Bench: gcc, Kind: core.KindFV},
		{Chip: xeon, Bench: gcc, Kind: core.KindFreq},
		{Chip: xeon, Bench: gcc, Kind: core.KindVolt},
		// The fixed Table 7 deadline against the self-tuning one.
		{Chip: xeon, Bench: xz, Kind: core.KindFV},
		{Chip: xeon, Bench: xz, Kind: core.KindAdaptive},
		{Chip: xeon, Bench: cam4, Kind: core.KindAdaptive},
	}
	for i := range scs {
		scs[i].SpendAging = true
		scs[i].Instructions = c.specInstr
		scs[i].Seed = c.seed
	}
	outs, err := core.RunAll(scs)
	if err != nil {
		return nil, err
	}
	thrashOn, thrashOff, perCore, single := outs[0], outs[1], outs[2], outs[3]
	gccFV, gccF, gccV, xzFixed, xzAdapt, cam4Adapt := outs[4], outs[5], outs[6], outs[7], outs[8], outs[9]

	t := report.NewTable("Ablations (−97 mV; CPU 𝒞 unless named)",
		"design choice → ablated", "workload", "metric", "shipped", "ablated")
	share := func(f float64) string { return fmt.Sprintf("%.1f %%", f*100) }
	t.AddRow("resetting deadline → fixed switchback", "VLC", "#DO",
		fmt.Sprintf("%d", resetting.Exceptions), fmt.Sprintf("%d", fixed.Exceptions))
	t.AddRow("thrashing prevention → p_df = 1", "527.cam4", "perf",
		report.Pct2(thrashOn.Change.Perf), report.Pct2(thrashOff.Change.Perf))
	t.AddRow("hardened IMUL → trapped IMUL", "IMUL every 560", "E-share",
		share(hardened.EfficientShare()), share(trapped.EfficientShare()))
	t.AddRow("per-core domains (𝒞) → one domain (𝒜)", "502.gcc ×4", "perf",
		report.Pct2(perCore.Change.Perf), report.Pct2(single.Change.Perf))
	t.AddRow("fV → f only", "502.gcc", "eff", report.Pct(gccFV.Efficiency), report.Pct(gccF.Efficiency))
	t.AddRow("fV → V only", "502.gcc", "eff", report.Pct(gccFV.Efficiency), report.Pct(gccV.Efficiency))
	t.AddRow("fixed deadline → adaptive", "557.xz", "eff", report.Pct(xzFixed.Efficiency), report.Pct(xzAdapt.Efficiency))
	t.AddRow("fixed deadline → adaptive", "527.cam4", "perf", report.Pct2(thrashOn.Change.Perf), report.Pct2(cam4Adapt.Change.Perf))
	return []cell{
		{id: "VLC #DO, resetting deadline", unit: "traps", than: '<',
			paper: float64(fixed.Exceptions), got: float64(resetting.Exceptions)},
		{id: "527.cam4 perf, thrashing prevention", unit: "%", than: '>',
			paper: thrashOff.Change.Perf * 100, got: thrashOn.Change.Perf * 100},
		{id: "IMUL-dense E-share, hardened IMUL", unit: "%", than: '>',
			paper: trapped.EfficientShare() * 100, got: hardened.EfficientShare() * 100},
		{id: "502.gcc ×4 perf, per-core domains", unit: "%", than: '>',
			paper: single.Change.Perf * 100, got: perCore.Change.Perf * 100},
	}, t.Render(w)
}
