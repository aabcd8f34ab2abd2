package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/report"
	"suit/internal/security"
	"suit/internal/strategy"
	"suit/internal/units"
	"suit/internal/workload"
)

// table6Rows are the configurations of Table 6.
type table6Config struct {
	label string
	chip  dvfs.Chip
	kind  core.StrategyKind
	cores int
}

// name is the row label with single spaces, as cell ids carry it.
func (rc table6Config) name() string { return strings.Join(strings.Fields(rc.label), " ") }

func table6Configs() []table6Config {
	return []table6Config{
		{"𝒜₁  fV", dvfs.IntelI9_9900K(), core.KindFV, 1},
		{"𝒜₄  fV", dvfs.IntelI9_9900K(), core.KindFV, 4},
		{"𝒜∞  e", dvfs.IntelI9_9900K(), core.KindEmul, 1},
		{"ℬ∞  f", dvfs.AMDRyzen7700X(), core.KindFreq, 1},
		{"ℬ∞  e", dvfs.AMDRyzen7700X(), core.KindEmul, 1},
		{"𝒞∞  fV", dvfs.XeonSilver4208(), core.KindFV, 1},
	}
}

var (
	powerModel = &reason{"power-model", "the power model (voltage exponent 3.5, per-chip Ceff) is fitted to Table 2's whole-package responses, so on 𝒞 the efficient curve saves more power than the paper's trace simulation reports"}
	netTraces  = &reason{"net-traces", "the synthetic nginx and VLC traces stay on the efficient curve longer than the paper's recorded ones, so their power saving tracks SPEC's and their performance rises with the efficient curve's frequency gain"}
	emulDense  = &reason{"emul-density", "the paper's SPEC traces hold benchmarks whose faultable density makes emulation ruinous; the synthetic densities are calibrated to the fV residencies and stay milder, so the e rows lose far less"}
	sharedA4   = &reason{"a4-uncore", "𝒜₄'s four copies interfere in one domain as the paper says (more exceptions, less time on E), but the shared-uncore power floor softens the efficiency loss, so SUIT also stays ahead of noSIMD on a few more benchmarks"}
	slowB      = &reason{"b-switch-power", "ℬ's f strategy loses performance to the 668 µs frequency change, as the paper argues, but the simulated package power falls further than the run time grows, so efficiency stays well positive"}
)

// runTable6 regenerates the paper's main results table.
func runTable6(c cfg, w io.Writer) ([]cell, error) {
	configs := table6Configs()
	rows := make([]core.SuiteResult, len(configs)) // at −97 mV, for the cells
	for _, spendAging := range []bool{false, true} {
		offset := "−70 mV"
		if spendAging {
			offset = "−97 mV"
		}
		t := report.NewTable(fmt.Sprintf("Table 6 (%s undervolt)", offset),
			"CPU/OS", "", "SPECgmean", "SPECmedian", "525.x264", "SPECnoSIMD", "Nginx", "VLC")
		for i, rc := range configs {
			row, err := core.EvaluateSuite(rc.chip, rc.kind, rc.cores, spendAging, c.specInstr, c.seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", rc.label, err)
			}
			// Every SUIT configuration runs every benchmark without a
			// single instruction below its margin.
			for _, b := range workload.SPEC() {
				o, ok := row.PerBench[b.Name]
				if !ok {
					return nil, fmt.Errorf("%s: no result for %s", rc.label, b.Name)
				}
				if err := security.VerifyNoFaults(o.Run); err != nil {
					return nil, fmt.Errorf("%s %s: %w", rc.label, b.Name, err)
				}
			}
			t.AddRow(rc.label, "Pwr", report.Pct(row.SPECGmean.Pwr), report.Pct(row.SPECMedian.Pwr),
				report.Pct(row.X264.Pwr), report.Pct(row.NoSIMD.Pwr), report.Pct(row.Nginx.Pwr), report.Pct(row.VLC.Pwr))
			t.AddRow("", "Perf", report.Pct(row.SPECGmean.Perf), report.Pct(row.SPECMedian.Perf),
				report.Pct(row.X264.Perf), report.Pct(row.NoSIMD.Perf), report.Pct(row.Nginx.Perf), report.Pct(row.VLC.Perf))
			t.AddRow("", "Eff", report.Pct(row.SPECGmean.Eff), report.Pct(row.SPECMedian.Eff),
				report.Pct(row.X264.Eff), report.Pct(row.NoSIMD.Eff), report.Pct(row.Nginx.Eff), report.Pct(row.VLC.Eff))
			if spendAging {
				rows[i] = row
			}
		}
		if err := t.Render(w); err != nil {
			return nil, err
		}
		fmt.Fprintln(w)
	}
	a1, a4, ae, bf, be, cfv := rows[0], rows[1], rows[2], rows[3], rows[4], rows[5]
	share := pct("𝒞∞ fV −97 mV SPEC efficient-curve residency", 72.7, cfv.MeanEfficientShare)
	fmt.Fprintf(w, "\n𝒞 fV at −97 mV spends %.1f %% of the time on the efficient curve (paper: %.1f %%)\n",
		share.got, share.paper)
	id := func(row int, col string) string {
		return configs[row].name() + " −97 mV " + col
	}
	small := func(perf float64) bool { return math.Abs(perf) < 0.03 }
	return []cell{
		pct(id(5, "SPECgmean Pwr"), -9.8, cfv.SPECGmean.Pwr).below(powerModel),
		pct(id(5, "SPECgmean Perf"), 0.2, cfv.SPECGmean.Perf),
		pct(id(5, "SPECgmean Eff"), 11, cfv.SPECGmean.Eff).above(powerModel),
		pct(id(5, "SPECmedian Pwr"), -11, cfv.SPECMedian.Pwr).below(powerModel),
		pct(id(5, "SPECmedian Perf"), 0.2, cfv.SPECMedian.Perf),
		pct(id(5, "SPECmedian Eff"), 13, cfv.SPECMedian.Eff).above(powerModel),
		pct(id(5, "525.x264 Pwr"), -12, cfv.X264.Pwr),
		pct(id(5, "525.x264 Perf"), -0.6, cfv.X264.Perf),
		pct(id(5, "525.x264 Eff"), 13, cfv.X264.Eff).above(powerModel),
		pct(id(5, "SPECnoSIMD Pwr"), -14, cfv.NoSIMD.Pwr),
		pct(id(5, "SPECnoSIMD Perf"), 3.8, cfv.NoSIMD.Perf).below(pstateBins),
		pct(id(5, "SPECnoSIMD Eff"), 21, cfv.NoSIMD.Eff),
		pct(id(5, "Nginx Pwr"), -5.8, cfv.Nginx.Pwr).below(netTraces),
		pct(id(5, "Nginx Perf"), 1.0, cfv.Nginx.Perf).deviates(netTraces, "|Perf| < 3 %", small(cfv.Nginx.Perf)),
		pct(id(5, "Nginx Eff"), 7.3, cfv.Nginx.Eff).above(netTraces),
		pct(id(5, "VLC Pwr"), -6.6, cfv.VLC.Pwr).below(netTraces),
		pct(id(5, "VLC Perf"), -0.6, cfv.VLC.Perf).deviates(netTraces, "|Perf| < 3 %", small(cfv.VLC.Perf)),
		pct(id(5, "VLC Eff"), 6.4, cfv.VLC.Eff).above(netTraces),
		share,
		pct(id(0, "SPECgmean Eff"), 12, a1.SPECGmean.Eff),
		pct(id(0, "Nginx Eff"), 7.4, a1.Nginx.Eff).above(netTraces),
		pct(id(1, "SPECgmean Eff"), 5.8, a4.SPECGmean.Eff).deviates(sharedA4, "𝒜₄ < 𝒜₁", a4.SPECGmean.Eff < a1.SPECGmean.Eff),
		pct(id(2, "SPECgmean Perf"), -42, ae.SPECGmean.Perf).above(emulDense),
		pct(id(2, "SPECmedian Perf"), -12, ae.SPECMedian.Perf).above(emulDense),
		pct(id(2, "SPECgmean Eff"), -34, ae.SPECGmean.Eff).deviates(emulDense, "e < fV on 𝒜", ae.SPECGmean.Eff < a1.SPECGmean.Eff),
		pct(id(2, "Nginx Perf"), -98, ae.Nginx.Perf),
		pct(id(2, "VLC Perf"), -92, ae.VLC.Perf),
		pct(id(3, "SPECgmean Eff"), 1.4, bf.SPECGmean.Eff).deviates(slowB, "ℬ f < 𝒞 fV", bf.SPECGmean.Eff < cfv.SPECGmean.Eff),
		pct(id(4, "SPECgmean Eff"), -14, be.SPECGmean.Eff).deviates(emulDense, "e on ℬ > e on 𝒜", be.SPECGmean.Eff > ae.SPECGmean.Eff),
		pct(id(4, "525.x264 Eff"), 41, be.X264.Eff),
		pct(id(4, "VLC Perf"), -80, be.VLC.Perf),
	}, nil
}

// runTable7 prints the Table 7 parameters and a sensitivity check around
// the deadline (§6.4: ±10 µs changes average efficiency by only ~0.6 %).
func runTable7(c cfg, w io.Writer) ([]cell, error) {
	t := report.NewTable("Table 7. Operating-strategy parameters",
		"CPU", "p_dl", "p_ts", "p_ec", "p_df")
	var cells []cell
	for _, r := range []struct {
		label string
		p     strategy.Params
		paper [4]float64 // p_dl µs, p_ts µs, p_ec, p_df
	}{
		{"𝒜 & 𝒞", strategy.ParamsAC(), [4]float64{30, 450, 3, 14}},
		{"ℬ", strategy.ParamsB(), [4]float64{700, 14000, 4, 9}},
	} {
		t.AddRow(r.label, r.p.Deadline.String(), r.p.TimeSpan.String(),
			fmt.Sprintf("%d", r.p.MaxExceptions), fmt.Sprintf("%.0f", r.p.DeadlineFactor))
		cells = append(cells,
			cell{id: r.label + " p_dl", unit: "µs", paper: r.paper[0], got: r.p.Deadline.Microseconds()},
			cell{id: r.label + " p_ts", unit: "µs", paper: r.paper[1], got: r.p.TimeSpan.Microseconds()},
			cell{id: r.label + " p_ec", unit: "traps", paper: r.paper[2], got: float64(r.p.MaxExceptions)},
			cell{id: r.label + " p_df", unit: "×", paper: r.paper[3], got: r.p.DeadlineFactor})
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}

	// Sensitivity: efficiency of a mid-density benchmark under deadline
	// variations, fanned out through the shared engine.
	gcc, err := byName("502.gcc")
	if err != nil {
		return nil, err
	}
	chip := dvfs.XeonSilver4208()
	deadlines := []float64{10, 20, 30, 40, 60, 120}
	params := make([]strategy.Params, len(deadlines))
	scs := make([]core.Scenario, len(deadlines))
	for i, dl := range deadlines {
		params[i] = strategy.ParamsAC()
		params[i].Deadline = units.Microseconds(dl)
		scs[i] = core.Scenario{Chip: chip, Bench: gcc[0], Kind: core.KindFV,
			SpendAging: true, Instructions: c.specInstr / 2, Params: &params[i], Seed: c.seed}
	}
	outs, err := core.RunAll(scs)
	if err != nil {
		return nil, err
	}
	st := report.NewTable("\nDeadline sensitivity (502.gcc on 𝒞, −97 mV)",
		"p_dl", "efficiency", "E-share")
	for i, o := range outs {
		st.AddRow(fmt.Sprintf("%.0f µs", deadlines[i]), report.Pct(o.Efficiency),
			fmt.Sprintf("%.1f %%", o.EfficientShare*100))
	}
	return cells, st.Render(w)
}

// table8Paper is Table 8: for each Table 6 configuration, how many SPEC
// benchmarks prefer the noSIMD build and how many SUIT.
var table8Paper = [][2]float64{{15, 8}, {21, 2}, {23, 0}, {21, 2}, {23, 0}, {16, 7}}

// runTable8 counts, per configuration, how many benchmarks prefer the
// noSIMD build over SUIT.
func runTable8(c cfg, w io.Writer) ([]cell, error) {
	t := report.NewTable("Table 8. Benchmarks where noSIMD beats SUIT (−97 mV)",
		"config", "No SIMD", "SUIT")
	var cells []cell
	for i, rc := range table6Configs() {
		row, err := core.CompareNoSIMD(rc.chip, rc.kind, rc.cores, true, c.specInstr/4, c.seed)
		if err != nil {
			return nil, err
		}
		if n := len(workload.SPEC()); row.NoSIMDBetter+row.SUITBetter != n {
			return nil, fmt.Errorf("%s: %d + %d benchmarks compared, want %d", rc.label, row.NoSIMDBetter, row.SUITBetter, n)
		}
		t.AddRow(rc.label, fmt.Sprintf("%d", row.NoSIMDBetter), fmt.Sprintf("%d", row.SUITBetter))
		noSIMD := cell{id: rc.name() + " noSIMD better", unit: "benchmarks", paper: table8Paper[i][0], got: float64(row.NoSIMDBetter)}
		suit := cell{id: rc.name() + " SUIT better", unit: "benchmarks", paper: table8Paper[i][1], got: float64(row.SUITBetter)}
		if i == 1 {
			suit = suit.deviates(sharedA4, "noSIMD still wins most", row.NoSIMDBetter > row.SUITBetter)
		}
		cells = append(cells, noSIMD, suit)
	}
	return cells, t.Render(w)
}

// runFig16 prints per-benchmark performance and efficiency on CPU 𝒞.
var parked = &reason{"parked", "thrashing prevention parks the dense benchmarks on the conservative curve for the whole run, where the paper's traces still spend a few percent on E, so they harvest nothing and lose nothing"}

var gccTrace = &reason{"gcc-trace", "the synthetic 502.gcc trace keeps 𝒞 on the efficient curve longer than the paper's recorded one, so the frequency gain outweighs the switching cost and performance rises where the paper's falls"}

func runFig16(c cfg, w io.Writer) ([]cell, error) {
	chip := dvfs.XeonSilver4208()
	type rowData struct {
		name string
		lo   core.Outcome
		hi   core.Outcome
	}
	benches := append(workload.SPEC(), workload.Nginx(), workload.VLC())
	var scs []core.Scenario
	for _, b := range benches {
		for _, aging := range []bool{false, true} {
			scs = append(scs, core.Scenario{Chip: chip, Bench: b, Kind: core.KindFV,
				SpendAging: aging, Instructions: c.specInstr, Seed: c.seed})
		}
	}
	outs, err := core.RunAll(scs)
	if err != nil {
		return nil, err
	}
	var rows []rowData
	at := map[string]core.Outcome{} // −97 mV outcomes by benchmark
	for i, b := range benches {
		rows = append(rows, rowData{b.Name, outs[2*i], outs[2*i+1]})
		at[b.Name] = outs[2*i+1]
	}
	// Paper orders the x-axis by decreasing benefit.
	sort.Slice(rows, func(i, j int) bool { return rows[i].hi.Efficiency > rows[j].hi.Efficiency })
	t := report.NewTable("Fig 16. Performance and efficiency on 𝒞 (fV)",
		"benchmark", "perf −70", "eff −70", "perf −97", "eff −97", "E-share −97")
	for _, r := range rows {
		t.AddRow(r.name,
			report.Pct(r.lo.Change.Perf), report.Pct(r.lo.Efficiency),
			report.Pct(r.hi.Change.Perf), report.Pct(r.hi.Efficiency),
			fmt.Sprintf("%.1f %%", r.hi.EfficientShare*100))
	}
	gcc, xz, omnetpp := at["502.gcc"], at["557.xz"], at["520.omnetpp"]
	cells := []cell{
		pct("557.xz −97 mV perf", 2.75, xz.Change.Perf),
		pct("557.xz −97 mV eff", 16.9, xz.Efficiency),
		pct("557.xz −97 mV E-share", 97.1, xz.EfficientShare),
		pct("502.gcc −97 mV perf", -2.89, gcc.Change.Perf).above(gccTrace),
		pct("502.gcc −97 mV eff", 9.67, gcc.Efficiency).deviates(gccTrace, "502.gcc < 557.xz", gcc.Efficiency < xz.Efficiency),
		pct("502.gcc −97 mV E-share", 76.6, gcc.EfficientShare),
		pct("520.omnetpp −97 mV perf", -0.13, omnetpp.Change.Perf),
		// Parked at ≈0, this cell lands on either side of its band's
		// edge depending on the stream length.
		pct("520.omnetpp −97 mV eff", 0.47, omnetpp.Efficiency).deviates(parked, "|eff| < 1 %", math.Abs(omnetpp.Efficiency) < 0.01),
		pct("520.omnetpp −97 mV E-share", 3.2, omnetpp.EfficientShare).deviates(parked, "E-share < 10 %", omnetpp.EfficientShare < 0.1),
	}
	return cells, t.Render(w)
}

// runSecurity performs the §6.9 analysis.
func runSecurity(c cfg, w io.Writer) ([]cell, error) {
	gb := guardband.Default()
	off := gb.EfficientOffset(isa.FaultableMask, true, true)
	if bad := security.CheckReduction(gb, isa.FaultableMask, off, true); len(bad) != 0 {
		return nil, fmt.Errorf("reduction check failed: %v", bad)
	}
	fmt.Fprintf(w, "reduction check: every enabled instruction keeps a non-negative margin at %v ✓\n", off)
	if bad := security.CheckReduction(gb, 0, off, false); len(bad) == 0 {
		return nil, fmt.Errorf("blind undervolting unexpectedly passed the reduction check")
	} else {
		fmt.Fprintf(w, "without SUIT the same offset violates %d instructions (incl. IMUL): insecure ✗\n\n", len(bad))
	}

	rep, err := security.RunAttack(dvfs.IntelI9_9900K(), off, c.seed)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Undervolting fault attack (AES victim, −97 mV)",
		"configuration", "silent faults", "#DO traps", "AES result")
	for _, o := range []security.AttackOutcome{rep.Nominal, rep.Unsafe, rep.SUIT} {
		result := "correct"
		if o.WrongResult {
			result = "CORRUPTED (key recoverable by DFA)"
		}
		t.AddRow(o.Config, fmt.Sprintf("%d", o.Faults), fmt.Sprintf("%d", o.Exceptions), result)
	}
	// SUIT is as safe as the nominal CPU, at the certified offset.
	return []cell{
		{id: "certified efficient-curve offset", unit: "mV", paper: -97, got: off.MilliVolts()},
		{id: "silent faults, nominal", unit: "faults", paper: 0, got: float64(rep.Nominal.Faults)},
		{id: "silent faults, SUIT", unit: "faults", paper: 0, got: float64(rep.SUIT.Faults)},
	}, t.Render(w)
}
