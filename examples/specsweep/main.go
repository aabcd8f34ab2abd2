// specsweep: Fig 16 — SUIT's fV strategy over the whole SPEC CPU2017
// suite (plus nginx and VLC) on CPU 𝒞, at both the −70 mV and −97 mV
// design points, ordered by efficiency gain.
//
// Workloads that use faultable instructions sparingly (557.xz,
// 523.xalancbmk) live on the efficient curve and collect the full gain;
// dense ones (520.omnetpp, 521.wrf) are parked on the conservative curve
// by thrashing prevention and lose nothing.
//
//	go run ./examples/specsweep [-instr 5e8]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/report"
	"suit/internal/workload"
)

type row struct {
	name   string
	lo, hi core.Outcome
}

func main() {
	instrStr := flag.String("instr", "5e8", "instructions per run")
	flag.Parse()
	totalF, err := strconv.ParseFloat(*instrStr, 64)
	if err != nil || totalF < 1e6 {
		log.Fatalf("bad -instr %q", *instrStr)
	}
	instr := uint64(totalF)

	chip := dvfs.XeonSilver4208()
	benches := append(workload.SPEC(), workload.Nginx(), workload.VLC())
	var scs []core.Scenario
	for _, b := range benches {
		for _, aging := range []bool{false, true} {
			scs = append(scs, core.Scenario{
				Chip: chip, Bench: b, Kind: core.KindFV,
				SpendAging: aging, Instructions: instr, Seed: 1,
			})
		}
	}
	// The shared engine runs them on every core and returns the
	// outcomes in scenario order.
	outs, err := core.RunAll(scs)
	if err != nil {
		log.Fatal(err)
	}
	rows := make([]row, len(benches))
	for i, b := range benches {
		rows[i] = row{name: b.Name, lo: outs[2*i], hi: outs[2*i+1]}
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].hi.Efficiency > rows[j].hi.Efficiency })
	t := report.NewTable(
		fmt.Sprintf("Fig 16: fV on %s (sorted by −97 mV efficiency)", chip.Name),
		"workload", "perf −70", "eff −70", "perf −97", "eff −97", "E-share")
	for _, r := range rows {
		t.AddRow(r.name,
			report.Pct(r.lo.Change.Perf), report.Pct(r.lo.Efficiency),
			report.Pct(r.hi.Change.Perf), report.Pct(r.hi.Efficiency),
			fmt.Sprintf("%.1f %%", r.hi.EfficientShare*100))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	var sumEff, sumShare float64
	for _, r := range rows[:23] {
		sumEff += r.hi.Efficiency
		sumShare += r.hi.EfficientShare
	}
	fmt.Printf("\nSPEC mean at −97 mV: efficiency %+.1f %%, efficient-curve residency %.1f %% (paper: ≈+11 %%, 72.7 %%)\n",
		sumEff/23*100, sumShare/23*100)
}
