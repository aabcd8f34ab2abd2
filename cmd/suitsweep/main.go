// Command suitsweep searches the operating-strategy parameter space
// (p_dl, p_ts, p_ec, p_df — §4.3) for the efficiency-optimal setting,
// reproducing the methodology behind Table 7 ("we ran hundreds of
// simulations to find the optimal values").
//
// The sweep fans out through the shared parallel experiment engine
// (internal/engine): -j bounds the worker pool, -cache reuses results
// across runs, and per-point seeds derive deterministically from the
// point's recording key (workload, cores, instructions) plus -seed, so
// the report is byte-identical at any parallelism level. Progress and
// throughput go to stderr; the table itself goes to stdout.
//
// Execution: as in the paper, which records one trace per benchmark and
// replays it under every setting (§5.1, §6.2), every grid point of one
// workload replays the same recording. Points share it, and the
// baseline machine stepped over it, through the content-addressed
// artifact store, so a sweep generates one trace set and steps one
// baseline per workload; each point steps only its run machine. The
// output does not depend on how points are scheduled.
//
// Failures: each point is simulated once. The first point that fails
// stops the sweep, and its error on stderr names the scenario's
// fingerprint (a panic comes with its stack); a simulation is a pure
// function of its scenario and seed, so a retry would fail the same
// way. An interrupted sweep re-run with the same -cache finds its
// finished points there and computes only the rest.
//
// Exit codes: 0 success, 1 usage or environment error, 2 a failed
// point, 130 interrupted (finished points are in -cache; re-run to
// continue).
//
// Example:
//
//	suitsweep -chip C -offset 97 -instr 3e8 -j 8 -cache /tmp/sweepcache
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/engine"
	"suit/internal/metrics"
	"suit/internal/prof"
	"suit/internal/report"
	"suit/internal/strategy"
	"suit/internal/workload"
)

// sweepPoint is one parameter combination with its outcome.
type sweepPoint struct {
	p   strategy.Params
	eff float64
}

// chipByName, sweepGrid and sweepBenches live in internal/core
// (ChipByName, SweepGrid, SweepBenches) so the suitd service and this
// CLI resolve specs identically; the thin aliases keep call sites
// readable.
var (
	chipByName   = core.ChipByName
	sweepGrid    = core.SweepGrid
	sweepBenches = core.SweepBenches
)

// sweepScenarios lays out the grid × workload matrix, grid-major.
func sweepScenarios(chip dvfs.Chip, grid []strategy.Params, benches []workload.Benchmark, spendAging bool, instr uint64) []core.Scenario {
	scs := make([]core.Scenario, 0, len(grid)*len(benches))
	for i := range grid {
		for _, b := range benches {
			scs = append(scs, core.Scenario{
				Chip: chip, Bench: b, Kind: core.KindFV,
				SpendAging: spendAging, Instructions: instr,
				Params: &grid[i], // Seed 0: the engine derives it from the recording key
			})
		}
	}
	return scs
}

// sweep evaluates the whole grid × workload matrix through the engine
// and ranks the points by mean efficiency; the first failed scenario
// fails the sweep.
func sweep(chip dvfs.Chip, grid []strategy.Params, benches []workload.Benchmark, spendAging bool, instr uint64) ([]sweepPoint, error) {
	outs, err := core.RunAll(sweepScenarios(chip, grid, benches, spendAging, instr))
	if err != nil {
		return nil, err
	}
	points := make([]sweepPoint, 0, len(grid))
	for i := range grid {
		effs := make([]float64, len(benches))
		for j := range benches {
			effs[j] = outs[i*len(benches)+j].Efficiency
		}
		mean, _ := metrics.Mean(effs)
		points = append(points, sweepPoint{p: grid[i], eff: mean})
	}
	// Rank by mean efficiency; exact ties keep grid order so the report
	// never depends on sort internals.
	sort.SliceStable(points, func(i, j int) bool { return points[i].eff > points[j].eff })
	return points, nil
}

// Exit codes. Usage mistakes and environment failures exit 1; a failed
// point exits 2 so scripts can tell "you called it wrong" from "a
// simulation died"; SIGINT exits 130.
const (
	exitOK     = 0
	exitUsage  = 1
	exitFailed = 2
	exitSignal = 130
)

func main() {
	// SIGINT cancels the run context: dispatch stops, in-flight jobs
	// finish and are cached, and run reports how to resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main with its context, arguments, streams and exit status
// lifted out, so tests can drive the exit codes in-process. Cancelling
// ctx interrupts the sweep as SIGINT does in main.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	// ContinueOnError so a flag typo follows the same usage exit code as
	// our own validation, instead of the flag package's hardwired 2.
	fs := flag.NewFlagSet("suitsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		chipName = fs.String("chip", "C", "CPU model: A, B, C")
		offset   = fs.Int("offset", 97, "undervolt in mV: 70 or 97")
		instrStr = fs.String("instr", "3e8", "instructions per run")
		seed     = fs.Uint64("seed", 1, "base seed for deterministic per-point seed derivation")
		top      = fs.Int("top", 10, "how many settings to print (>= 1)")
		workers  = fs.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
		cacheDir = fs.String("cache", "", "directory for the on-disk result cache (reused across runs)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (flushed on exit, including SIGINT)")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	chip, err := chipByName(*chipName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	if *top < 1 {
		fmt.Fprintf(stderr, "bad -top %d: need at least one setting to print\n", *top)
		return exitUsage
	}
	instr, err := workload.ParseInstructions(*instrStr, 1e6)
	if err != nil {
		fmt.Fprintf(stderr, "bad -instr: %v\n", err)
		return exitUsage
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "suitsweep: profile flush:", err)
		}
	}()

	core.SetRunContext(ctx)
	core.SetEngineOptions(engine.Options{
		Workers:  *workers,
		BaseSeed: *seed,
		CacheDir: *cacheDir,
		Progress: stderr,
		Label:    "suitsweep",
	})

	grid := sweepGrid(chip)
	benches, err := sweepBenches()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	fmt.Fprintf(stdout, "sweeping %d parameter settings × %d workloads on %s at −%d mV...\n",
		len(grid), len(benches), chip.Name, *offset)

	results, err := sweep(chip, grid, benches, *offset == 97, instr)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if *cacheDir != "" {
				fmt.Fprintf(stderr, "suitsweep: interrupted — completed jobs are cached; re-run with the same -cache to continue\n")
			} else {
				fmt.Fprintf(stderr, "suitsweep: interrupted — nothing was kept; run with -cache to make a re-run continue\n")
			}
			fmt.Fprintf(stderr, "suitsweep: partial stats: %s\n", core.EngineStats())
			return exitSignal
		}
		fmt.Fprintln(stderr, err)
		fmt.Fprintf(stderr, "suitsweep: stats: %s\n", core.EngineStats())
		return exitFailed
	}

	n := *top
	if n > len(results) {
		n = len(results)
	}
	t := report.NewTable(fmt.Sprintf("Top %d parameter settings (mean efficiency over %d workloads)", n, len(benches)),
		"p_dl", "p_ts", "p_ec", "p_df", "efficiency")
	for _, r := range results[:n] {
		t.AddRow(r.p.Deadline.String(), r.p.TimeSpan.String(),
			fmt.Sprintf("%d", r.p.MaxExceptions), fmt.Sprintf("%.0f", r.p.DeadlineFactor),
			report.Pct(r.eff))
	}
	if err := t.Render(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	spread := results[0].eff - results[len(results)-1].eff
	fmt.Fprintf(stdout, "\nbest-to-worst spread: %.2f points — the paper notes workloads tolerate a wide range (§6.4)\n", spread*100)
	fmt.Fprintf(stdout, "Table 7 reference: 𝒜&𝒞 30 µs/450 µs/3/14; ℬ 700 µs/14 ms/4/9\n")
	fmt.Fprintf(stderr, "suitsweep: %s\n", core.EngineStats())
	return exitOK
}
