package main

import (
	"fmt"
	"io"

	"suit/internal/baselines"
	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/guardband"
	"suit/internal/report"
	"suit/internal/sched"
	"suit/internal/security"
	"suit/internal/units"
	"suit/internal/workload"
)

// The extension experiments: discussion items of the paper (§7, §8) made
// executable. They are part of the default "all" run but carry their own
// ids for selective execution.

// runCovert quantifies the §8 covert channel.
func runCovert(c cfg, w io.Writer) ([]cell, error) {
	bits := make([]bool, 32)
	for i := range bits {
		bits[i] = i%3 == 0 || i%7 == 0
	}
	t := report.NewTable("§8 extension. Curve-switching covert channel (i9-9900K, shared domain)",
		"symbol window", "raw rate", "bit errors", "error rate")
	for _, us := range []float64{200, 400, 800} {
		res, err := security.CovertChannel(dvfs.IntelI9_9900K(), bits, units.Microseconds(us), c.seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(units.Microseconds(us).String(),
			fmt.Sprintf("%.1f kbit/s", res.BitsPerSecond/1000),
			fmt.Sprintf("%d/%d", res.BitErrors, len(bits)),
			fmt.Sprintf("%.1f %%", res.ErrorRate()*100))
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "\nthe sender drags the shared DVFS domain conservative with one trap per")
	fmt.Fprintln(w, "1-bit; the receiver decodes its own throughput dips with clock recovery.")
	return nil, nil
}

// runBaselines prints the §7 related-work comparison.
func runBaselines(c cfg, w io.Writer) ([]cell, error) {
	gb := guardband.Default()
	xz, err := byName("557.xz")
	if err != nil {
		return nil, err
	}
	tr, err := xz[0].GenerateTrace(20_000_000, c.seed)
	if err != nil {
		return nil, err
	}
	rows, err := baselines.Compare(dvfs.IntelI9_9900K(), gb, tr, c.seed)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("§7 extension. Undervolting approaches compared (i9-9900K)",
		"approach", "offset", "efficiency", "risk")
	for _, r := range rows {
		risk := "none beyond today's CPUs"
		switch {
		case r.FaultsOnUnprofiled:
			risk = "silent faults on unprofiled code"
		case r.SpendsAgingGuardband:
			risk = "consumes the aging guardband"
		}
		t.AddRow(r.Name, r.Offset.String(), report.Pct(r.Eff), risk)
	}
	return nil, t.Render(w)
}

// runSched prints the §7 scheduling experiment.
func runSched(c cfg, w io.Writer) ([]cell, error) {
	tasks, err := byName("557.xz", "505.mcf", "520.omnetpp", "521.wrf")
	if err != nil {
		return nil, err
	}
	cfg := sched.Config{
		Chip: dvfs.IntelI9_9900K(), Clusters: 2, CoresPerCluster: 2,
		Tasks: tasks, Instructions: c.netInstr, SpendAging: true, Seed: c.seed,
	}
	spread, packed, err := sched.Compare(cfg)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("§7 extension. SUIT-aware placement (2 clusters × 2 cores)",
		"policy", "assignment", "perf", "power", "efficiency")
	t.AddRow("round-robin", fmt.Sprint([]int(spread.Assignment)),
		report.Pct(spread.Change.Perf), report.Pct(spread.Change.Power), report.Pct(spread.Eff))
	t.AddRow("pack by density", fmt.Sprint([]int(packed.Assignment)),
		report.Pct(packed.Change.Perf), report.Pct(packed.Change.Power), report.Pct(packed.Eff))
	return nil, t.Render(w)
}

// runVariance reports mean ± σ over seeds for flagship cells, mirroring
// the paper's (n, σ) annotations.
func runVariance(c cfg, w io.Writer) ([]cell, error) {
	n := 6
	if c.quick {
		n = 4
	}
	t := report.NewTable(fmt.Sprintf("Run-to-run variance (n = %d seeds)", n),
		"cell", "perf", "power", "efficiency", "E-share")
	pm := func(mean, sigma float64) string {
		return fmt.Sprintf("%+.2f ± %.2f %%", mean*100, sigma*100)
	}
	spec, err := byName("557.xz", "502.gcc")
	if err != nil {
		return nil, err
	}
	xz, gcc := spec[0], spec[1]
	cells := []struct {
		label string
		sc    core.Scenario
	}{
		{"557.xz on 𝒞, fV, −97 mV", core.Scenario{
			Chip: dvfs.XeonSilver4208(), Bench: xz, Kind: core.KindFV,
			SpendAging: true, Instructions: c.specInstr / 2, Seed: c.seed}},
		{"502.gcc on 𝒞, fV, −97 mV", core.Scenario{
			Chip: dvfs.XeonSilver4208(), Bench: gcc, Kind: core.KindFV,
			SpendAging: true, Instructions: c.specInstr / 2, Seed: c.seed}},
		{"nginx on 𝒜, fV, −97 mV", core.Scenario{
			Chip: dvfs.IntelI9_9900K(), Bench: workload.Nginx(), Kind: core.KindFV,
			SpendAging: true, Instructions: c.netInstr, Seed: c.seed}},
	}
	for _, cell := range cells {
		st, err := core.RunN(cell.sc, n)
		if err != nil {
			return nil, err
		}
		t.AddRow(cell.label, pm(st.Perf, st.PerfSigma), pm(st.Power, st.PowerSigma),
			pm(st.Eff, st.EffSigma), pm(st.Share, st.ShareSigma))
	}
	return nil, t.Render(w)
}

// byName resolves workload names in order, failing on the first one the
// registry lacks.
func byName(names ...string) ([]workload.Benchmark, error) {
	bs := make([]workload.Benchmark, len(names))
	for i, name := range names {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("suittables: missing workload %s", name)
		}
		bs[i] = b
	}
	return bs, nil
}
