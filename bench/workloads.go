package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"suit/internal/core"
	"suit/internal/workload"
)

// toy shrinks every workload to a few points and a few jobs, so the
// package tests can run all five in-process within seconds. Only tests
// set it.
var toy = false

// workloadDef is one benchmark workload: a set of inputs, and the
// layers they load.
type workloadDef struct {
	name string
	// start builds the workload's inputs and brings its system up; the
	// returned instance is ready for the timed phase.
	start func(env) (instance, error)
}

// env is what every workload is started with.
type env struct {
	seed   uint64
	rec    *recorder // nil in the untraced run
	tmpDir string    // scratch space for state directories
}

// instance is a started workload.
type instance interface {
	// run is the timed phase: it repeats the workload's operations for
	// at least seconds and checks their outputs.
	run(seconds float64) (*result, error)
	// close stops everything the workload started and waits for it.
	close() error
}

// workloads lists the benchmark's workloads, in BENCHMARK.json's order.
// Why each exists is in README.md and BENCHMARK.json.
var workloads = []workloadDef{
	{"sweep-table7", startSweepTable7},
	{"cells-table6", startCellsTable6},
	{"sparse-grid", startSparseGrid},
	{"served", startServed},
	{"served-dist", startServedDist},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// warmup is how long a workload runs untimed before its timed phase of
// seconds: long enough for the heap and the trace artifact store to grow
// to their working size, so that the page faults of that growth stay out
// of the timing.
func warmup(seconds float64) float64 { return seconds / 3 }

// instructions scales a workload's per-core instruction count down for
// toy runs.
func instructions(n uint64) uint64 {
	if toy {
		return max(n/100, 100_000)
	}
	return n
}

// table7Points is chip letter's Table 7 grid over benches: fV at a 97 mV
// undervolt, engine-derived seeds, exactly as suitsweep builds it.
func table7Points(letter string, benches []workload.Benchmark, instr uint64) ([]core.Scenario, error) {
	chip, err := core.ChipByName(letter)
	if err != nil {
		return nil, err
	}
	grid := core.SweepGrid(chip)
	scs := make([]core.Scenario, 0, len(grid)*len(benches))
	for i := range grid {
		for _, b := range benches {
			scs = append(scs, core.Scenario{
				Chip: chip, Bench: b, Kind: core.KindFV,
				SpendAging: true, Instructions: instr, Params: &grid[i],
			})
		}
	}
	return scs, nil
}

func startSweepTable7(e env) (instance, error) {
	benches, err := core.SweepBenches()
	if err != nil {
		return nil, err
	}
	scs, err := table7Points("C", benches, instructions(100_000_000))
	if err != nil {
		return nil, err
	}
	return newSweep(e, "sweep-table7", scs, 16, byWorkload), nil
}

func startCellsTable6(e env) (instance, error) {
	var scs []core.Scenario
	for _, letter := range core.ChipLetters() {
		chip, err := core.ChipByName(letter)
		if err != nil {
			return nil, err
		}
		for _, kind := range []core.StrategyKind{core.KindFV, core.KindEmul, core.KindDynamic} {
			for _, cores := range []int{1, 4} {
				for _, b := range workload.All() {
					instr := uint64(200_000_000)
					if b.Suite == workload.Network {
						instr = 10_000_000
					}
					scs = append(scs, core.Scenario{
						Chip: chip, Bench: b, Kind: kind, Cores: cores,
						SpendAging: true, Instructions: instructions(instr),
					})
				}
			}
		}
	}
	return newSweep(e, "cells-table6", scs, 9, byWorkloadAndCores), nil
}

func startSparseGrid(e env) (instance, error) {
	var scs []core.Scenario
	for _, letter := range core.ChipLetters() {
		pts, err := table7Points(letter, workload.SPEC(), instructions(50_000_000))
		if err != nil {
			return nil, err
		}
		scs = append(scs, pts...)
	}
	return newSweep(e, "sparse-grid", scs, 24, byWorkload), nil
}

// byWorkload and byWorkloadAndCores are the strata of deal. A point's
// cost depends most on its workload: the network workloads' dense traps
// make a VLC or nginx point cost as much as hundreds of SPEC points, and
// a 4-core cell several 1-core ones.
func byWorkload(sc core.Scenario) string { return sc.Chip.Name + "/" + sc.Bench.Name }

func byWorkloadAndCores(sc core.Scenario) string {
	return fmt.Sprintf("%s/%d", sc.Bench.Name, sc.Cores)
}

// deal splits points into n rounds of the same cost. It groups the points
// into strata by the key stratum gives, puts each stratum in a fixed
// pseudo-random order, and hands the k-th point of the s-th stratum to
// round (k+s) mod n. When n divides every stratum's size, every round gets
// the same number of points of every stratum, and the shuffle spreads the
// rest of a point's make-up (its grid setting, or its workload) evenly
// over the rounds. The deal depends only on the point list, never on the
// seed, so every run times the same rounds.
func deal(points []core.Scenario, n int, stratum func(core.Scenario) string) [][]core.Scenario {
	strata := make(map[string][]core.Scenario)
	var keys []string
	for _, sc := range points {
		k := stratum(sc)
		if _, ok := strata[k]; !ok {
			keys = append(keys, k)
		}
		strata[k] = append(strata[k], sc)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewPCG(1, 2))
	rounds := make([][]core.Scenario, n)
	for s, k := range keys {
		st := strata[k]
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
		for i, sc := range st {
			r := (i + s) % n
			rounds[r] = append(rounds[r], sc)
		}
	}
	if toy {
		for r := range rounds {
			rounds[r] = rounds[r][:min(len(rounds[r]), 4)]
		}
	}
	return rounds
}
