package main

import (
	"fmt"
	"io"

	"suit/internal/core"
	"suit/internal/cpu"
	"suit/internal/dvfs"
	"suit/internal/report"
	"suit/internal/units"
	"suit/internal/workload"
)

// runFig5 shows an AES burst in the VLC trace and the DVFS curve switches
// SUIT performs around it.
func runFig5(c cfg, w io.Writer) ([]cell, error) {
	// VLC's AES bursts are tens of millions of instructions apart; keep
	// the stream long enough to show several even in quick mode.
	instr := max(c.netInstr, 200_000_000)
	o, err := core.Run(core.Scenario{
		Chip: dvfs.XeonSilver4208(), Bench: workload.VLC(), Kind: core.KindFV,
		SpendAging: true, Instructions: instr, Seed: c.seed, RecordTimeline: true,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "VLC under fV on 𝒞: %d AES bursts trapped, %d curve-switch requests\n\n",
		o.Run.Exceptions, len(o.Run.Timeline))
	t := report.NewTable("Fig 5. DVFS curve switching around AES bursts (first 12 switches)",
		"time", "target curve")
	for i, mc := range o.Run.Timeline {
		if i >= 12 {
			break
		}
		curve := "conservative (" + mc.Mode.String() + ")"
		if mc.Mode == cpu.ModeE {
			curve = "efficient (E)"
		}
		t.AddRow(mc.T.String(), curve)
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	// The burst/gap structure itself (the horizontal segments of Fig 5).
	tr, err := workload.VLC().GenerateTrace(instr, c.seed)
	if err != nil {
		return nil, err
	}
	stats := traceGapSeries(tr, "Fig 5: gap sizes (log10 instructions)")
	ds := downsample(stats, 64)
	fmt.Fprintf(w, "\ngap-size shape over the run: %s\n", ds.Sparkline())
	return nil, nil
}

// runFig6 drives one long synthetic burst through the fV strategy and
// prints the E → Cf → Cv → E sequence with its timing.
func runFig6(c cfg, w io.Writer) ([]cell, error) {
	// A burst long enough for the voltage change to complete (§4.3).
	b := workload.Benchmark{
		Name: "longburst", Suite: workload.Network, IPC: 2,
		BurstEvery: 80e6, BurstLen: 40_000, BurstIntraGap: 50, BurstSigma: 0.1,
		NoSIMD: map[workload.CPUFamily]float64{workload.Intel: 0, workload.AMD: 0},
	}
	o, err := core.Run(core.Scenario{
		Chip: dvfs.XeonSilver4208(), Bench: b, Kind: core.KindFV,
		SpendAging: true, Instructions: 100_000_000, Seed: c.seed,
		RecordTimeline: true, SampleEvery: units.Microseconds(25),
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 6. fV operating strategy over a long burst",
		"time", "requested p-state", "meaning")
	meaning := map[cpu.Mode]string{
		cpu.ModeE:  "efficient curve (low V, full f)",
		cpu.ModeCf: "conservative via frequency drop (fast)",
		cpu.ModeCv: "conservative at full performance (V settled)",
	}
	for i, mc := range o.Run.Timeline {
		if i >= 9 {
			break
		}
		t.AddRow(mc.T.String(), mc.Mode.String(), meaning[mc.Mode])
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nexceptions: %d, deadline fires: %d (one per burst)\n",
		o.Run.Exceptions, o.Run.DeadlineFires)
	// The sampled voltage/frequency traces around the first burst — the
	// actual curves of Fig 6.
	if len(o.Run.Timeline) >= 2 && len(o.Run.Samples) > 0 {
		burstAt := o.Run.Timeline[1].T
		volt := report.Series{Name: "Fig 6: domain voltage", XLabel: "t_us", YLabel: "mV"}
		freq := report.Series{Name: "Fig 6: domain frequency", XLabel: "t_us", YLabel: "GHz"}
		for _, s := range o.Run.Samples {
			if s.T < burstAt-units.Microseconds(100) || s.T > burstAt+units.Milliseconds(1) {
				continue
			}
			volt.Add(s.T.Microseconds(), s.V.MilliVolts())
			freq.Add(s.T.Microseconds(), s.F.GHz())
		}
		fmt.Fprintf(w, "voltage around the burst:   %s\n", volt.Sparkline())
		fmt.Fprintf(w, "frequency around the burst: %s\n", freq.Sparkline())
	}
	// The figure's sequence: one #DO enters the burst, one deadline
	// leaves it.
	return []cell{
		{id: "#DO over the burst", unit: "traps", paper: 1, got: float64(o.Run.Exceptions)},
		{id: "deadline fires after it", unit: "fires", paper: 1, got: float64(o.Run.DeadlineFires)},
	}, nil
}

// runFig7 prints the VLC AES timeline (gap sizes over instruction index).
func runFig7(c cfg, w io.Writer) ([]cell, error) {
	tr, err := workload.VLC().GenerateTrace(max(c.netInstr, 400_000_000), c.seed)
	if err != nil {
		return nil, err
	}
	s := traceGapSeries(tr, "Fig 7: AES gap sizes while VLC streams")
	ds := downsampleMax(s, 48)
	if err := ds.WriteCSV(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "shape: %s\n", ds.Sparkline())
	fmt.Fprintf(w, "%d AES events in %.0fM instructions; bursts with intra-gaps ~10¹, quiet gaps ~10⁶⁺\n",
		len(tr.Events), float64(tr.Total)/1e6)
	return nil, nil
}

// downsampleMax reduces a series to n buckets keeping each bucket's
// maximum — gap spikes (the quiet periods of Fig 7) survive.
func downsampleMax(s report.Series, n int) report.Series {
	if s.Len() <= n {
		return s
	}
	out := report.Series{Name: s.Name, XLabel: s.XLabel, YLabel: s.YLabel}
	step := float64(s.Len()) / float64(n)
	for i := 0; i < n; i++ {
		lo, hi := int(float64(i)*step), int(float64(i+1)*step)
		if hi > s.Len() {
			hi = s.Len()
		}
		bestIdx := lo
		for j := lo + 1; j < hi; j++ {
			if s.Y[j] > s.Y[bestIdx] {
				bestIdx = j
			}
		}
		out.Add(s.X[bestIdx], s.Y[bestIdx])
	}
	return out
}

// downsample reduces a series to at most n evenly spaced points.
func downsample(s report.Series, n int) report.Series {
	if s.Len() <= n {
		return s
	}
	out := report.Series{Name: s.Name, XLabel: s.XLabel, YLabel: s.YLabel}
	step := float64(s.Len()) / float64(n)
	for i := 0; i < n; i++ {
		idx := int(float64(i) * step)
		out.Add(s.X[idx], s.Y[idx])
	}
	return out
}

// probeFigure renders one §5.2 transition measurement and returns the
// phase timing the probe sampled.
func probeFigure(w io.Writer, name string, chip dvfs.Chip, from, to dvfs.PState, interval units.Second) (dvfs.Transition, error) {
	norm := func() float64 { return 0 }
	samples := dvfs.ProbeTransition(chip.Transition, from, to, norm, interval)
	volt := report.Series{Name: name + ": core voltage", XLabel: "t_us", YLabel: "mV"}
	freq := report.Series{Name: name + ": effective frequency", XLabel: "t_us", YLabel: "GHz"}
	stalled := 0
	for _, s := range samples {
		volt.Add(s.T.Microseconds(), s.V.MilliVolts())
		freq.Add(s.T.Microseconds(), s.F.GHz())
		if s.Stalled {
			stalled++
		}
	}
	if err := volt.WriteCSV(w); err != nil {
		return dvfs.Transition{}, err
	}
	fmt.Fprintf(w, "shape: %s\n\n", volt.Sparkline())
	if err := freq.WriteCSV(w); err != nil {
		return dvfs.Transition{}, err
	}
	fmt.Fprintf(w, "shape: %s\nstalled samples: %d of %d\n", freq.Sparkline(), stalled, len(samples))
	return chip.Transition.Plan(from, to, norm), nil
}

func runFig8(c cfg, w io.Writer) ([]cell, error) {
	chip := dvfs.IntelI9_9900K()
	// §5.2: reset a negative offset back to 0 mV — voltage rises at a
	// fixed frequency.
	s, _ := chip.Vendor.StateAt(47)
	from := dvfs.PState{Ratio: s.Ratio, F: s.F, V: s.V + units.MilliVolts(-97)}
	tr, err := probeFigure(w, "Fig 8 (i9-9900K voltage change, 350 µs)", chip, from, s, units.Microseconds(10))
	return []cell{{id: "voltage change", unit: "µs", paper: 350, sigma: 22,
		got: (tr.VoltDone - tr.VoltStart).Microseconds()}}, err
}

func runFig9(c cfg, w io.Writer) ([]cell, error) {
	chip := dvfs.IntelI9_9900K()
	hi, _ := chip.Vendor.StateAt(47)
	lo, _ := chip.Vendor.StateAt(40)
	to := dvfs.PState{Ratio: lo.Ratio, F: lo.F, V: hi.V} // frequency only
	tr, err := probeFigure(w, "Fig 9 (i9-9900K frequency change, 22 µs with stall)", chip, hi, to, units.Microseconds(1))
	return []cell{{id: "frequency change", unit: "µs", paper: 22, sigma: 0.21, got: tr.FreqDone.Microseconds()}}, err
}

func runFig10(c cfg, w io.Writer) ([]cell, error) {
	chip := dvfs.AMDRyzen7700X()
	hi, _ := chip.Vendor.StateAt(45)
	lo, _ := chip.Vendor.StateAt(25)
	to := dvfs.PState{Ratio: lo.Ratio, F: lo.F, V: hi.V}
	tr, err := probeFigure(w, "Fig 10 (7700X frequency change, 668 µs, no stall)", chip, hi, to, units.Microseconds(20))
	return []cell{
		{id: "frequency change", unit: "µs", paper: 668, sigma: 292, got: tr.FreqDone.Microseconds()},
		{id: "stall", unit: "µs", paper: 0, got: (tr.FreqDone - tr.StallStart).Microseconds()},
	}, err
}

func runFig11(c cfg, w io.Writer) ([]cell, error) {
	chip := dvfs.XeonSilver4208()
	lo, _ := chip.Vendor.StateAt(21)
	hi, _ := chip.Vendor.StateAt(30)
	tr, err := probeFigure(w, "Fig 11 (Xeon 4208 p-state change: voltage 335 µs then frequency 31 µs)",
		chip, lo, hi, units.Microseconds(10))
	return []cell{
		{id: "voltage change", unit: "µs", paper: 335, got: (tr.VoltDone - tr.VoltStart).Microseconds()},
		{id: "then frequency change", unit: "µs", paper: 31, got: (tr.FreqDone - tr.VoltDone).Microseconds()},
		{id: "stall", unit: "µs", paper: 27, got: (tr.FreqDone - tr.StallStart).Microseconds()},
	}, err
}
