package main

import (
	"fmt"
	"math"
	"os"

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

// runTable1 prints the faultable-instruction table with the margins the
// guardband model assigns from it.
func runTable1(c cfg, w *os.File) error {
	gb := guardband.Default()
	t := report.NewTable("Table 1. Undervolting-induced instruction faults",
		"instruction", "faults", "class", "certified margin", "physical margin")
	for _, info := range isa.Table1() {
		t.AddRow(info.Name,
			fmt.Sprintf("%d", info.FaultCount),
			info.Class.String(),
			gb.Margin(info.Op, false).String(),
			gb.PhysicalMargin(info.Op, false).String())
	}
	return t.Render(w)
}

// runDelays prints the §5.2/§5.3 delay parameters per chip.
func runDelays(c cfg, w *os.File) error {
	t := report.NewTable("§5.2/§5.3. Measured delays driving the simulation",
		"CPU", "freq change", "freq stall", "volt change", "#DO entry", "emulation call")
	for _, chip := range allChips() {
		tm := chip.Transition
		t.AddRow(chip.Name, tm.FreqDelay.String(), tm.FreqStall.String(),
			tm.VoltDelay.String(), chip.ExceptionDelay.String(), chip.EmulCallDelay.String())
	}
	return t.Render(w)
}

func allChips() []dvfs.Chip {
	return []dvfs.Chip{
		dvfs.IntelI5_1035G1(), dvfs.IntelI9_9900K(),
		dvfs.AMDRyzen7700X(), dvfs.XeonSilver4208(),
	}
}

// runTable2 prints the undervolting response of every chip.
func runTable2(c cfg, w *os.File) error {
	t := report.NewTable("Table 2. Undervolting response (score, power, frequency, efficiency)",
		"CPU", "offset", "score", "power", "freq", "efficiency")
	for _, chip := range allChips() {
		for _, mv := range []float64{-70, -97} {
			p := core.UndervoltResponse(chip, units.MilliVolts(mv))
			t.AddRow(chip.Name, fmt.Sprintf("%.0f mV", mv),
				report.Pct(p.Score), report.Pct(p.Power), report.Pct(p.Freq), report.Pct(p.Eff))
		}
	}
	return t.Render(w)
}

// runFig12 prints the i9-9900K sweep over voltage offsets.
func runFig12(c cfg, w *os.File) error {
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
			return err
		}
		fmt.Fprintf(w, "shape: %s\n\n", s.Sparkline())
	}
	return nil
}

// runFig13 prints the vendor curve and the hardened-IMUL safe curve.
func runFig13(c cfg, w *os.File) error {
	vendor := dvfs.IntelI9_9900K().Vendor
	mod := guardband.HardenedIMULCurve(vendor)
	t := report.NewTable("Fig 13. Stable frequency-voltage pairs, i9-9900K",
		"frequency", "vendor voltage", "modified-IMUL voltage", "ΔV")
	for i, s := range vendor.States {
		t.AddRow(s.F.String(), s.V.String(), mod.States[i].V.String(),
			(s.V - mod.States[i].V).String())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "top-of-curve gradient: %.0f mV/GHz (paper: 183 mV/GHz)\n",
		vendor.Gradient()*1e9*1000)
	return nil
}

// runTable3 prints the temperature guardband measurements.
func runTable3(c cfg, w *os.File) error {
	t := report.NewTable("Table 3. Maximum undervolt vs core temperature (i9-9900K)",
		"f_CLK", "fan", "t_core", "V_off")
	pts := guardband.Table3()
	fans := []string{"1800 rpm (max)", "300 rpm"}
	for i, p := range pts {
		t.AddRow("4.00 GHz", fans[i], p.Temp.String(), p.MaxOffset.String())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	gbv := guardband.TempGuardbandFor(units.Celsius(50), units.Celsius(88))
	fmt.Fprintf(w, "temperature guardband 50→88 °C: %s (paper: 35 mV ≈ 3.5 %%)\n", (-gbv).String())
	return nil
}

// runAging prints the §5.6 aging guardband derivation.
func runAging(c cfg, w *os.File) error {
	curve := dvfs.IntelI9_9900K().Vendor
	gbv := guardband.AgingGuardbandFor(curve)
	fmt.Fprintf(w, "aging guardband = f_top · 15 %% · gradient = %.2f GHz · 0.15 · %.0f mV/GHz = %s (paper: 137 mV = 12 %%)\n",
		curve.Top().F.GHz(), curve.Gradient()*1e9*1000, gbv.String())
	t := report.NewTable("Delay degradation model (BTI power law)",
		"years", "at 105 °C", "at 60 °C")
	for _, y := range []float64{1, 2, 5, 10} {
		t.AddRow(fmt.Sprintf("%.0f", y),
			fmt.Sprintf("%.1f %%", guardband.AgingDegradation(y, units.Celsius(105))*100),
			fmt.Sprintf("%.1f %%", guardband.AgingDegradation(y, units.Celsius(60))*100))
	}
	return t.Render(w)
}

// runTable4 prints the noSIMD impact table.
func runTable4(c cfg, w *os.File) error {
	t := report.NewTable("Table 4. Performance impact of disabling SSE/AVX",
		"benchmark", "i9-9900K", "7700X")
	t.AddRow("fprate (mean)",
		report.Pct(workload.SuiteMeanNoSIMD(workload.SPECfp, workload.Intel)),
		report.Pct(workload.SuiteMeanNoSIMD(workload.SPECfp, workload.AMD)))
	t.AddRow("intrate (mean)",
		report.Pct(workload.SuiteMeanNoSIMD(workload.SPECint, workload.Intel)),
		report.Pct(workload.SuiteMeanNoSIMD(workload.SPECint, workload.AMD)))
	for _, name := range []string{"508.namd", "521.wrf", "538.imagick", "554.roms", "525.x264", "548.exchange2"} {
		b, _ := workload.ByName(name)
		t.AddRow(name, report.Pct(b.NoSIMD[workload.Intel]), report.Pct(b.NoSIMD[workload.AMD]))
	}
	return t.Render(w)
}

// runTable5 prints the out-of-order core configuration.
func runTable5(c cfg, w *os.File) error {
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
	return t.Render(w)
}

// runFig14 prints the IMUL latency study.
func runFig14(c cfg, w *os.File) error {
	ucfg := uarch.DefaultConfig()
	n := 400_000
	if c.quick {
		n = 150_000
	}
	x264, _ := workload.ByName("525.x264")
	geo := report.Series{Name: "Fig 14: geomean slowdown", XLabel: "imul_latency", YLabel: "slowdown_pct"}
	xs := report.Series{Name: "Fig 14: 525.x264 slowdown", XLabel: "imul_latency", YLabel: "slowdown_pct"}
	for _, lat := range []int{4, 5, 6, 15, 30} {
		var sumLog float64
		for _, b := range workload.SPEC() {
			s, err := uarch.Slowdown(ucfg, b.Mix(), n, c.seed, lat)
			if err != nil {
				return err
			}
			sumLog += math.Log1p(s)
		}
		geo.Add(float64(lat), math.Expm1(sumLog/23)*100)
		s, err := uarch.Slowdown(ucfg, x264.Mix(), n, c.seed, lat)
		if err != nil {
			return err
		}
		xs.Add(float64(lat), s*100)
	}
	for _, s := range []*report.Series{&geo, &xs} {
		if err := s.WriteCSV(w); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "paper: geomean 0.03 %% at latency 4; 525.x264 1.60 %% at 4, ~46 %% at 30\n")
	return nil
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
