// Command suitsweep searches the operating-strategy parameter space
// (p_dl, p_ts, p_ec, p_df — §4.3) for the efficiency-optimal setting,
// reproducing the methodology behind Table 7 ("we ran hundreds of
// simulations to find the optimal values").
//
// The sweep fans out through the shared parallel experiment engine
// (internal/engine): -j bounds the worker pool, -cache reuses results
// across runs, and per-point seeds derive deterministically from the
// point fingerprint plus -seed, so the report is byte-identical at any
// parallelism level. Progress and throughput go to stderr; the table
// itself goes to stdout.
//
// Execution: points share content-addressed trace artifacts, and each
// point runs its base machine and then its run machine over them. The
// output does not depend on how points are scheduled.
//
// Resilience flags: -retries re-runs transiently failing points with
// the same derived seed (default 0: no retries; contrast suitd, whose
// -retries defaults to 1), -job-timeout arms a per-job watchdog,
// -on-error=continue finishes the sweep past failures (failed points
// are dropped from the ranking and their fingerprints listed on
// stderr), and -resume continues an interrupted sweep from the
// checkpoint journal kept next to the -cache directory.
//
// Exit codes: 0 success, 1 usage or environment error, 2 job failures,
// 130 interrupted (checkpoint flushed; re-run with -resume).
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
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"time"

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

// sweep evaluates the whole grid × workload matrix through the engine
// and aggregates the per-point mean efficiency, preserving grid order.
// Under the continue-on-error policy, failed scenarios come back as
// fingerprints and every grid point they touch is excluded from the
// ranking — a partially simulated point would corrupt its mean.
func sweep(chip dvfs.Chip, grid []strategy.Params, benches []workload.Benchmark, spendAging bool, instr uint64) ([]sweepPoint, []string, error) {
	scs := make([]core.Scenario, 0, len(grid)*len(benches))
	for i := range grid {
		for _, b := range benches {
			scs = append(scs, core.Scenario{
				Chip: chip, Bench: b, Kind: core.KindFV,
				SpendAging: spendAging, Instructions: instr,
				Params: &grid[i], // Seed 0: engine derives the per-point seed
			})
		}
	}
	outs, err := core.RunAll(scs)
	var re *engine.RunError
	if err != nil && !errors.As(err, &re) {
		return nil, nil, err
	}
	failedPoint := make([]bool, len(grid))
	var failed []string
	if re != nil {
		failed = re.Keys()
		for _, f := range re.Failures {
			failedPoint[f.Index/len(benches)] = true
		}
	}
	points := make([]sweepPoint, 0, len(grid))
	for i := range grid {
		if failedPoint[i] {
			continue
		}
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
	return points, failed, nil
}

// Exit codes. Usage mistakes and environment failures exit 1; job
// failures under -on-error=continue exit 2 so scripts can tell "you
// called it wrong" from "some simulations died"; SIGINT exits 130
// after flushing the checkpoint.
const (
	exitOK     = 0
	exitUsage  = 1
	exitFailed = 2
	exitSignal = 130
)

func main() { os.Exit(run()) }

func run() int {
	var (
		chipName   = flag.String("chip", "C", "CPU model: A, B, C")
		offset     = flag.Int("offset", 97, "undervolt in mV: 70 or 97")
		instrStr   = flag.String("instr", "3e8", "instructions per run")
		seed       = flag.Uint64("seed", 1, "base seed for deterministic per-point seed derivation")
		top        = flag.Int("top", 10, "how many settings to print (>= 1)")
		workers    = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
		cacheDir   = flag.String("cache", "", "directory for the on-disk result cache (reused across runs)")
		retries    = flag.Int("retries", 0, "per-job retry budget for transient failures (same derived seed on every attempt)")
		onError    = flag.String("on-error", "fail", "failure policy: 'fail' stops at the first failed job, 'continue' finishes the sweep and reports failures")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job watchdog timeout (0 disables)")
		resume     = flag.Bool("resume", false, "resume an interrupted sweep from the checkpoint journal (requires -cache)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file (flushed on exit, including SIGINT)")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	// ContinueOnError so a flag typo follows the same usage exit code as
	// our own validation, instead of the flag package's hardwired 2.
	flag.CommandLine.Init("suitsweep", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return exitUsage
	}

	chip, err := chipByName(*chipName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	if *top < 1 {
		fmt.Fprintf(os.Stderr, "bad -top %d: need at least one setting to print\n", *top)
		return exitUsage
	}
	instr, err := workload.ParseInstructions(*instrStr, 1e6)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -instr: %v\n", err)
		return exitUsage
	}
	var policy engine.FailurePolicy
	switch *onError {
	case "fail":
		policy = engine.FailFast
	case "continue":
		policy = engine.Collect
	default:
		fmt.Fprintf(os.Stderr, "bad -on-error %q: want 'fail' or 'continue'\n", *onError)
		return exitUsage
	}
	if *resume && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -cache: the checkpoint journal lives next to the result cache")
		return exitUsage
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "suitsweep: profile flush:", err)
		}
	}()

	// SIGINT cancels the run context: dispatch stops, in-flight jobs
	// finish and are checkpointed, and we report how to resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	core.SetRunContext(ctx)

	var cp *engine.Checkpoint
	if *cacheDir != "" {
		config := fmt.Sprintf("suitsweep chip=%s offset=%d instr=%d seed=%d", chip.Name, *offset, instr, *seed)
		cp, err = engine.OpenCheckpoint(filepath.Join(*cacheDir, "suitsweep.journal"), config, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
		defer cp.Close()
	}

	core.SetEngineOptions(engine.Options{
		Workers:      *workers,
		BaseSeed:     *seed,
		CacheDir:     *cacheDir,
		Progress:     os.Stderr,
		Label:        "suitsweep",
		Retries:      *retries,
		RetryBackoff: 100 * time.Millisecond,
		Policy:       policy,
		JobTimeout:   *jobTimeout,
		Checkpoint:   cp,
	})

	grid := sweepGrid(chip)
	benches, err := sweepBenches()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	fmt.Printf("sweeping %d parameter settings × %d workloads on %s at −%d mV...\n",
		len(grid), len(benches), chip.Name, *offset)

	results, failed, err := sweep(chip, grid, benches, *offset == 97, instr)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "suitsweep: interrupted — completed jobs are checkpointed; re-run with -resume to continue\n")
			fmt.Fprintf(os.Stderr, "suitsweep: partial stats: %s\n", core.EngineStats())
			return exitSignal
		}
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	if len(results) > 0 {
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
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
		spread := results[0].eff - results[len(results)-1].eff
		fmt.Printf("\nbest-to-worst spread: %.2f points — the paper notes workloads tolerate a wide range (§6.4)\n", spread*100)
		fmt.Printf("Table 7 reference: 𝒜&𝒞 30 µs/450 µs/3/14; ℬ 700 µs/14 ms/4/9\n")
	}
	fmt.Fprintf(os.Stderr, "suitsweep: %s\n", core.EngineStats())
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "suitsweep: %d scenarios failed; their grid points were dropped from the ranking:\n", len(failed))
		for _, k := range failed {
			fmt.Fprintf(os.Stderr, "  failed: %s\n", k)
		}
		return exitFailed
	}
	return exitOK
}
