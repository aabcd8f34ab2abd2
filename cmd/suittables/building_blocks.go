package main

import (
	"fmt"
	"io"
	"math"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/report"
	"suit/internal/trace"
	"suit/internal/uarch"
	"suit/internal/units"
	"suit/internal/workload"
)

// table1Faults are Table 1's fault counts (Kogler et al.).
var table1Faults = map[string]float64{
	"IMUL": 79, "VOR": 47, "AESENC": 40, "VXOR": 40, "VANDN": 30, "VAND": 28,
	"VSQRTPD": 24, "VPCLMULQDQ": 16, "VPSRAD": 9, "VPCMP": 5, "VPMAX": 3, "VPADDQ": 1,
}

// runTable1 prints the faultable-instruction table with the margins the
// guardband model assigns from it.
func runTable1(c cfg, w io.Writer) ([]cell, error) {
	gb := guardband.Default()
	t := report.NewTable("Table 1. Undervolting-induced instruction faults",
		"instruction", "faults", "class", "certified margin", "physical margin")
	var cells []cell
	for _, info := range isa.Table1() {
		t.AddRow(info.Name,
			fmt.Sprintf("%d", info.FaultCount),
			info.Class.String(),
			gb.Margin(info.Op, false).String(),
			gb.PhysicalMargin(info.Op, false).String())
		cells = append(cells, cell{id: info.Name + " faults", unit: "faults",
			paper: table1Faults[info.Name], got: float64(info.FaultCount)})
	}
	return cells, t.Render(w)
}

// runDelays prints the §5.2/§5.3 delay parameters per chip and measures
// what one emulated #DO costs a simulated core.
func runDelays(c cfg, w io.Writer) ([]cell, error) {
	t := report.NewTable("§5.2/§5.3. Measured delays driving the simulation",
		"CPU", "freq change", "freq stall", "volt change", "#DO entry", "emulation call")
	for _, chip := range allChips() {
		tm := chip.Transition
		t.AddRow(chip.Name, tm.FreqDelay.String(), tm.FreqStall.String(),
			tm.VoltDelay.String(), chip.ExceptionDelay.String(), chip.EmulCallDelay.String())
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	a, b := dvfs.IntelI9_9900K(), dvfs.AMDRyzen7700X()
	perTrap, err := emulatedTrapCost()
	if err != nil {
		return nil, err
	}
	return []cell{
		{id: "𝒜 #DO entry", unit: "ns", paper: 340, got: nanos(a.ExceptionDelay)},
		{id: "𝒜 emulation call", unit: "ns", paper: 770, got: nanos(a.EmulCallDelay)},
		{id: "ℬ #DO entry", unit: "ns", paper: 110, got: nanos(b.ExceptionDelay)},
		{id: "ℬ emulation call", unit: "ns", paper: 270, got: nanos(b.EmulCallDelay)},
		// 𝒞 reuses 𝒜's §5.3 measurements: one emulated trap costs the
		// #DO entry plus the emulation call.
		{id: "𝒞 cost per emulated AESENC", unit: "ns", paper: 340 + 770, got: nanos(perTrap)},
	}, nil
}

func nanos(s units.Second) float64 { return s.Microseconds() * 1000 }

func allChips() []dvfs.Chip {
	return []dvfs.Chip{
		dvfs.IntelI5_1035G1(), dvfs.IntelI9_9900K(),
		dvfs.AMDRyzen7700X(), dvfs.XeonSilver4208(),
	}
}

var pstateBins = &reason{"pstate-bins", "the sustained frequency moves in whole 100 MHz p-states, so undervolt headroom is cashed in whole bins: the i9 reaches 4.7 GHz where the paper averages 4.65, the TDP-bound i5 spends a bin's worth of power on clock where the paper's part held its power, and on 𝒞 the noSIMD build's bin gain is mostly cancelled by Table 4's scalarisation losses"}

// runTable2 prints the undervolting response of every chip.
func runTable2(c cfg, w io.Writer) ([]cell, error) {
	t := report.NewTable("Table 2. Undervolting response (score, power, frequency, efficiency)",
		"CPU", "offset", "score", "power", "freq", "efficiency")
	at97 := map[string]core.UndervoltPoint{}
	for _, chip := range allChips() {
		for _, mv := range []float64{-70, -97} {
			p := core.UndervoltResponse(chip, units.MilliVolts(mv))
			t.AddRow(chip.Name, fmt.Sprintf("%.0f mV", mv),
				report.Pct(p.Score), report.Pct(p.Power), report.Pct(p.Freq), report.Pct(p.Eff))
			if mv == -97 {
				at97[chip.Name] = p
			}
		}
	}
	i5, i9, amd := at97[dvfs.IntelI5_1035G1().Name], at97[dvfs.IntelI9_9900K().Name], at97[dvfs.AMDRyzen7700X().Name]
	// The paper's TDP-bound laptop gains far more score than it saves
	// power; the desktops save power at a small score gain.
	tdpBound := i5.Score > -i5.Power
	return []cell{
		pct("i5-1035G1 −97 mV score", 7.9, i5.Score).deviates(pstateBins, "score > −power (TDP-bound)", tdpBound),
		pct("i5-1035G1 −97 mV power", -0.5, i5.Power).deviates(pstateBins, "score > −power (TDP-bound)", tdpBound),
		pct("i5-1035G1 −97 mV freq", 12, i5.Freq),
		pct("i5-1035G1 −97 mV efficiency", 8.4, i5.Eff).deviates(pstateBins, "efficiency > 0", i5.Eff > 0),
		pct("i9-9900K −97 mV score", 3.8, i9.Score),
		pct("i9-9900K −97 mV power", -16, i9.Power),
		pct("i9-9900K −97 mV freq", 3.3, i9.Freq).deviates(pstateBins, "freq > 0", i9.Freq > 0),
		pct("i9-9900K −97 mV efficiency", 23, i9.Eff),
		pct("7700X −97 mV score", 1.9, amd.Score),
		pct("7700X −97 mV power", -15, amd.Power),
		pct("7700X −97 mV freq", 1.8, amd.Freq),
		pct("7700X −97 mV efficiency", 20, amd.Eff),
	}, t.Render(w)
}

// runFig12 prints the i9-9900K sweep over voltage offsets.
func runFig12(c cfg, w io.Writer) ([]cell, error) {
	chip := dvfs.IntelI9_9900K()
	score := report.Series{Name: "Fig 12: SPEC score increase (i9-9900K)", XLabel: "offset_mV", YLabel: "score_pct"}
	pwr := report.Series{Name: "Fig 12: mean package power (i9-9900K)", XLabel: "offset_mV", YLabel: "power_W"}
	freq := report.Series{Name: "Fig 12: mean frequency (i9-9900K)", XLabel: "offset_mV", YLabel: "freq_GHz"}
	for _, mv := range []float64{0, -40, -70, -97} {
		p := core.UndervoltResponse(chip, units.MilliVolts(mv))
		score.Add(mv, p.Score*100)
		pwr.Add(mv, float64(p.AbsPower))
		freq.Add(mv, p.AbsFreq.GHz())
	}
	for _, s := range []*report.Series{&score, &pwr, &freq} {
		if err := s.WriteCSV(w); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "shape: %s\n\n", s.Sparkline())
	}
	last := len(pwr.Y) - 1
	return []cell{
		{id: "power at 0 mV", unit: "W", paper: 93, got: pwr.Y[0]},
		{id: "power at −97 mV", unit: "W", paper: 77, got: pwr.Y[last]},
		{id: "frequency at 0 mV", unit: "MHz", paper: 4500, got: freq.Y[0] * 1000},
		{id: "frequency at −97 mV", unit: "MHz", paper: 4650, got: freq.Y[last] * 1000},
	}, nil
}

// runFig13 prints the vendor curve and the hardened-IMUL safe curve.
func runFig13(c cfg, w io.Writer) ([]cell, error) {
	vendor := dvfs.IntelI9_9900K().Vendor
	mod := guardband.HardenedIMULCurve(vendor)
	t := report.NewTable("Fig 13. Stable frequency-voltage pairs, i9-9900K",
		"frequency", "vendor voltage", "modified-IMUL voltage", "ΔV")
	for i, s := range vendor.States {
		t.AddRow(s.F.String(), s.V.String(), mod.States[i].V.String(),
			(s.V - mod.States[i].V).String())
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	gradient := cell{id: "top-of-curve gradient", unit: "mV/GHz", paper: 183, got: vendor.Gradient() * 1e9 * 1000}
	fmt.Fprintf(w, "top-of-curve gradient: %.0f mV/GHz (paper: %.0f mV/GHz)\n", gradient.got, gradient.paper)
	top := len(vendor.States) - 1
	return []cell{
		{id: "vendor voltage at 5 GHz", unit: "mV", paper: 1174, got: vendor.Top().V.MilliVolts()},
		gradient,
		{id: "modified-IMUL ΔV at 5 GHz", unit: "mV", paper: 220, got: (vendor.States[top].V - mod.States[top].V).MilliVolts()},
	}, nil
}

// runTable3 prints the temperature guardband measurements.
func runTable3(c cfg, w io.Writer) ([]cell, error) {
	t := report.NewTable("Table 3. Maximum undervolt vs core temperature (i9-9900K)",
		"f_CLK", "fan", "t_core", "V_off")
	pts := guardband.Table3()
	fans := []string{"1800 rpm (max)", "300 rpm"}
	cells := make([]cell, 0, len(pts)+1)
	for i, p := range pts {
		t.AddRow("4.00 GHz", fans[i], p.Temp.String(), p.MaxOffset.String())
		cells = append(cells, cell{id: "max undervolt at " + p.Temp.String(), unit: "mV",
			paper: []float64{-90, -55}[i], got: p.MaxOffset.MilliVolts()})
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	gbv := guardband.TempGuardbandFor(units.Celsius(50), units.Celsius(88))
	guard := cell{id: "temperature guardband 50→88 °C", unit: "mV", paper: 35, got: -gbv.MilliVolts()}
	fmt.Fprintf(w, "temperature guardband 50→88 °C: %s (paper: %.0f mV ≈ 3.5 %%)\n", (-gbv).String(), guard.paper)
	return append(cells, guard), nil
}

// runAging prints the §5.6 aging guardband derivation.
func runAging(c cfg, w io.Writer) ([]cell, error) {
	curve := dvfs.IntelI9_9900K().Vendor
	gbv := guardband.AgingGuardbandFor(curve)
	cells := []cell{
		{id: "aging guardband", unit: "mV", paper: 137, got: gbv.MilliVolts()},
		{id: "aging guardband / top voltage", unit: "%", paper: 12, got: float64(gbv/curve.Top().V) * 100},
	}
	fmt.Fprintf(w, "aging guardband = f_top · 15 %% · gradient = %.2f GHz · 0.15 · %.0f mV/GHz = %s (paper: %.0f mV = %.0f %%)\n",
		curve.Top().F.GHz(), curve.Gradient()*1e9*1000, gbv.String(), cells[0].paper, cells[1].paper)
	t := report.NewTable("Delay degradation model (BTI power law)",
		"years", "at 105 °C", "at 60 °C")
	for _, y := range []float64{1, 2, 5, 10} {
		t.AddRow(fmt.Sprintf("%.0f", y),
			fmt.Sprintf("%.1f %%", guardband.AgingDegradation(y, units.Celsius(105))*100),
			fmt.Sprintf("%.1f %%", guardband.AgingDegradation(y, units.Celsius(60))*100))
	}
	return cells, t.Render(w)
}

// runTable4 prints the noSIMD impact table.
func runTable4(c cfg, w io.Writer) ([]cell, error) {
	t := report.NewTable("Table 4. Performance impact of disabling SSE/AVX",
		"benchmark", "i9-9900K", "7700X")
	var cells []cell
	for _, s := range []struct {
		label string
		suite workload.Suite
		paper [2]float64 // i9-9900K, 7700X
	}{{"fprate", workload.SPECfp, [2]float64{-4.1, -5.9}}, {"intrate", workload.SPECint, [2]float64{0.5, 2.6}}} {
		i9 := workload.SuiteMeanNoSIMD(s.suite, workload.Intel)
		amd := workload.SuiteMeanNoSIMD(s.suite, workload.AMD)
		t.AddRow(s.label+" (mean)", report.Pct(i9), report.Pct(amd))
		cells = append(cells, pct(s.label+" mean i9-9900K", s.paper[0], i9), pct(s.label+" mean 7700X", s.paper[1], amd))
	}
	rows, err := byName("508.namd", "521.wrf", "538.imagick", "554.roms", "525.x264", "548.exchange2")
	if err != nil {
		return nil, err
	}
	for _, b := range rows {
		t.AddRow(b.Name, report.Pct(b.NoSIMD[workload.Intel]), report.Pct(b.NoSIMD[workload.AMD]))
	}
	return cells, t.Render(w)
}

// runTable5 prints the out-of-order core configuration.
func runTable5(c cfg, w io.Writer) ([]cell, error) {
	u := uarch.DefaultConfig()
	t := report.NewTable("Table 5. Out-of-order core model (gem5 O3 substitute)",
		"parameter", "value")
	t.AddRow("dispatch/retire width", fmt.Sprintf("%d", u.Width))
	t.AddRow("reorder buffer", fmt.Sprintf("%d entries", u.ROB))
	t.AddRow("IMUL latency (stock)", fmt.Sprintf("%d cycles, pipelined", u.IMULLatency))
	t.AddRow("branch mispredict", fmt.Sprintf("%.1f %% @ %d cycles", u.BranchMispredictRate*100, u.MispredictPenalty))
	t.AddRow("LLC miss", fmt.Sprintf("%.1f %% @ %d cycles", u.LoadMissRate*100, u.MissLatency))
	for k := isa.FUKind(0); int(k) < isa.NumFUKinds; k++ {
		if n, ok := u.FUs[k]; ok {
			t.AddRow("FU "+k.String(), fmt.Sprintf("%d", n))
		}
	}
	return nil, t.Render(w)
}

// runFig14 prints the IMUL latency study.
func runFig14(c cfg, w io.Writer) ([]cell, error) {
	ucfg := uarch.DefaultConfig()
	n := 400_000
	if c.quick {
		n = 150_000
	}
	x264, err := byName("525.x264")
	if err != nil {
		return nil, err
	}
	spec := workload.SPEC()
	geo := report.Series{Name: "Fig 14: geomean slowdown", XLabel: "imul_latency", YLabel: "slowdown_pct"}
	xs := report.Series{Name: "Fig 14: 525.x264 slowdown", XLabel: "imul_latency", YLabel: "slowdown_pct"}
	for _, lat := range []int{4, 5, 6, 15, 30} {
		var sumLog float64
		for _, b := range spec {
			s, err := uarch.Slowdown(ucfg, b.Mix(), n, c.seed, lat)
			if err != nil {
				return nil, err
			}
			sumLog += math.Log1p(s)
		}
		geo.Add(float64(lat), math.Expm1(sumLog/float64(len(spec)))*100)
		s, err := uarch.Slowdown(ucfg, x264[0].Mix(), n, c.seed, lat)
		if err != nil {
			return nil, err
		}
		xs.Add(float64(lat), s*100)
	}
	for _, s := range []*report.Series{&geo, &xs} {
		if err := s.WriteCSV(w); err != nil {
			return nil, err
		}
	}
	last := len(xs.Y) - 1
	cells := []cell{
		{id: "geomean slowdown at latency 4", unit: "%", paper: 0.03, got: geo.Y[0], sigma: 0.15},
		{id: "525.x264 slowdown at latency 4", unit: "%", paper: 1.60, got: xs.Y[0], sigma: 0.55},
		{id: "525.x264 slowdown at latency 30", unit: "%", paper: 46.63, got: xs.Y[last]},
	}
	fmt.Fprintf(w, "paper: geomean %.2f %% at latency 4; 525.x264 %.2f %% at 4, ~%d %% at 30\n",
		cells[0].paper, cells[1].paper, int(cells[2].paper))
	return cells, nil
}

// traceGapSeries converts a trace into the gap-size timeline of Figs 5/7.
func traceGapSeries(tr *trace.Trace, name string) report.Series {
	s := report.Series{Name: name, XLabel: "instruction_index", YLabel: "log10_gap"}
	var prev uint64
	for _, ev := range tr.Events {
		gap := ev.Index - prev
		y := 0.0
		if gap > 0 {
			y = math.Log10(float64(gap))
		}
		s.Add(float64(ev.Index), y)
		prev = ev.Index + 1
	}
	return s
}
