package core

import (
	"fmt"

	"suit/internal/dvfs"
	"suit/internal/metrics"
	"suit/internal/power"
	"suit/internal/units"
	"suit/internal/workload"
)

// Cell is one aggregate of Table 6: power, performance and efficiency
// changes relative to the pre-SUIT baseline.
type Cell struct {
	Pwr  float64
	Perf float64
	Eff  float64
}

func cellOf(o Outcome) Cell {
	return Cell{Pwr: o.Change.Power, Perf: o.Change.Perf, Eff: o.Efficiency}
}

// SuiteResult is one Table 6 row: a CPU × core count × strategy × offset
// evaluated over SPEC CPU2017 plus the network workloads.
type SuiteResult struct {
	Chip       string
	Kind       StrategyKind
	Cores      int
	SpendAging bool

	PerBench map[string]Outcome // SPEC benchmarks with the row strategy

	SPECGmean  Cell
	SPECMedian Cell
	X264       Cell
	NoSIMD     Cell // every benchmark compiled without SIMD (§6.7)
	Nginx      Cell
	VLC        Cell

	// MeanEfficientShare is the average efficient-curve residency over
	// SPEC (the 72.7 % headline at −97 mV on 𝒞).
	MeanEfficientShare float64
}

// runParallel evaluates scenarios through the shared engine, keyed by
// workload name.
func runParallel(scs []Scenario) (map[string]Outcome, error) {
	outs, err := RunAll(scs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Outcome, len(outs))
	for i, o := range outs {
		out[scs[i].Bench.Name] = o
	}
	return out, nil
}

// EvaluateSuite produces one Table 6 row. instructions of 0 uses the
// defaults; smaller values speed up exploratory runs at some statistical
// cost.
func EvaluateSuite(chip dvfs.Chip, kind StrategyKind, cores int, spendAging bool, instructions uint64, seed uint64) (SuiteResult, error) {
	res := SuiteResult{Chip: chip.Name, Kind: kind, Cores: cores, SpendAging: spendAging}

	mk := func(b workload.Benchmark, k StrategyKind) Scenario {
		return Scenario{
			Chip: chip, Bench: b, Kind: k, Cores: cores,
			SpendAging: spendAging, Instructions: instructions, Seed: seed,
		}
	}

	var scs []Scenario
	for _, b := range workload.SPEC() {
		scs = append(scs, mk(b, kind))
	}
	outs, err := runParallel(scs)
	if err != nil {
		return res, err
	}
	res.PerBench = outs

	var perf, pwr, eff, share []float64
	for _, b := range workload.SPEC() {
		o := outs[b.Name]
		perf = append(perf, o.Change.Perf)
		pwr = append(pwr, o.Change.Power)
		eff = append(eff, o.Efficiency)
		share = append(share, o.EfficientShare)
	}
	if res.SPECGmean.Perf, err = metrics.GeomeanChange(perf); err != nil {
		return res, err
	}
	if res.SPECGmean.Pwr, err = metrics.GeomeanChange(pwr); err != nil {
		return res, err
	}
	if res.SPECGmean.Eff, err = metrics.GeomeanChange(eff); err != nil {
		return res, err
	}
	res.SPECMedian.Perf, _ = metrics.Median(perf)
	res.SPECMedian.Pwr, _ = metrics.Median(pwr)
	res.SPECMedian.Eff, _ = metrics.Median(eff)
	res.MeanEfficientShare, _ = metrics.Mean(share)
	res.X264 = cellOf(outs["525.x264"])

	// SPECnoSIMD column: every benchmark compiled without SIMD running
	// permanently on the efficient curve (identical for every strategy
	// row of a CPU; for the e rows the paper notes nothing is emulated).
	var nsScs []Scenario
	for _, b := range workload.SPEC() {
		nsScs = append(nsScs, mk(b, KindNoSIMD))
	}
	nsOuts, err := runParallel(nsScs)
	if err != nil {
		return res, err
	}
	var nsPerf, nsPwr, nsEff []float64
	for _, b := range workload.SPEC() {
		o := nsOuts[b.Name]
		nsPerf = append(nsPerf, o.Change.Perf)
		nsPwr = append(nsPwr, o.Change.Power)
		nsEff = append(nsEff, o.Efficiency)
	}
	res.NoSIMD.Perf, _ = metrics.GeomeanChange(nsPerf)
	res.NoSIMD.Pwr, _ = metrics.GeomeanChange(nsPwr)
	res.NoSIMD.Eff, _ = metrics.GeomeanChange(nsEff)

	// Network workloads with the row strategy (f and fV rows; the paper
	// reports them for e as well).
	netOuts, err := runParallel([]Scenario{mk(workload.Nginx(), kind), mk(workload.VLC(), kind)})
	if err != nil {
		return res, err
	}
	res.Nginx = cellOf(netOuts["nginx"])
	res.VLC = cellOf(netOuts["VLC"])
	return res, nil
}

// Table8Row reports, per CPU configuration, for how many SPEC benchmarks
// compiling without SIMD beats running the stock binary under SUIT (§6.7).
type Table8Row struct {
	Label        string
	NoSIMDBetter int
	SUITBetter   int
}

// CompareNoSIMD computes a Table 8 row from per-benchmark outcomes of the
// same chip/cores/offset under the row strategy and under noSIMD.
func CompareNoSIMD(chip dvfs.Chip, kind StrategyKind, cores int, spendAging bool, instructions uint64, seed uint64) (Table8Row, error) {
	row := Table8Row{Label: fmt.Sprintf("%s/%s", chip.Name, kind)}
	var scs []Scenario
	for _, b := range workload.SPEC() {
		for _, k := range []StrategyKind{kind, KindNoSIMD} {
			scs = append(scs, Scenario{Chip: chip, Bench: b, Kind: k, Cores: cores,
				SpendAging: spendAging, Instructions: instructions, Seed: seed})
		}
	}
	outs, err := RunAll(scs)
	if err != nil {
		return row, err
	}
	for i := 0; i < len(outs); i += 2 {
		suit, ns := outs[i], outs[i+1]
		if ns.Change.Perf > suit.Change.Perf {
			row.NoSIMDBetter++
		} else {
			row.SUITBetter++
		}
	}
	return row, nil
}

// UndervoltPoint is one Table 2 / Fig 12 measurement: the steady-state
// response of a chip to a raw undervolt under its TDP, with all cores
// active — no SUIT machinery involved.
type UndervoltPoint struct {
	Offset   units.Volt
	Score    float64 // relative score change (frequency-bound workloads)
	Power    float64 // relative package power change
	Freq     float64 // relative sustained frequency change
	Eff      float64
	AbsFreq  units.Hertz
	AbsPower units.Watt
}

// UndervoltResponse computes the §5.4 response analytically from the chip
// model: the sustainable p-state shifts up as the undervolt frees TDP
// headroom, and package power follows the voltage exponent.
func UndervoltResponse(chip dvfs.Chip, offset units.Volt) UndervoltPoint {
	pkg := func(f units.Hertz, v units.Volt) units.Watt {
		cores := make([]power.CoreState, chip.Cores)
		for i := range cores {
			cores[i] = power.CoreState{V: v, F: f, Activity: 1}
		}
		return chip.Power.Package(cores)
	}
	base := chip.SustainableState(chip.Vendor, 0, chip.Cores)
	uv := chip.SustainableState(chip.Vendor, offset, chip.Cores)
	basePower := pkg(base.F, base.V)
	uvPower := pkg(uv.F, uv.V+offset)
	ch := metrics.Change{
		Perf:  float64(uv.F)/float64(base.F) - 1,
		Power: float64(uvPower)/float64(basePower) - 1,
	}
	return UndervoltPoint{
		Offset:   offset,
		Score:    ch.Perf,
		Power:    ch.Power,
		Freq:     ch.Perf,
		Eff:      ch.Efficiency(),
		AbsFreq:  uv.F,
		AbsPower: uvPower,
	}
}
