// Command suittables regenerates every table and figure of the SUIT paper
// (ASPLOS '24) from the simulation stack, printing paper-style tables and
// CSV figure series, and ends with one paper-vs-measured table of every
// number the paper reports for the experiments that ran.
//
// Usage:
//
//	suittables [-exp all|<id>] [-quick] [-seed n]
//
// Experiment ids: table1 delays table2 fig12 fig13 table3 aging table4
// table5 fig14 fig5 fig6 fig7 fig8 fig9 fig10 fig11 table6 table7 table8
// fig16 security, plus the extension experiments covert, baselines, sched,
// variance and ablations. "all" (default) runs everything; -quick shortens
// the simulated instruction streams for a fast pass.
//
// A failed experiment does not abort the batch: the remaining
// experiments still run, every failure is summarised on stderr (an
// engine failure names the failed scenario's fingerprint), and the
// process exits 2. A paper cell outside its band with no recorded
// deviation, or a deviation whose claimed shape does not hold, is a
// failure too. Usage errors exit 1; SIGINT exits 130, and a re-run with
// the same -cache computes only the jobs the interrupted run left.
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
	"slices"
	"strings"

	"suit/internal/core"
	"suit/internal/engine"
	"suit/internal/prof"
)

type experiment struct {
	id   string
	desc string
	run  func(c cfg, w io.Writer) ([]cell, error)
}

type cfg struct {
	quick bool
	seed  uint64
	// specInstr / netInstr are the per-core stream lengths.
	specInstr uint64
	netInstr  uint64
}

var experiments = []experiment{
	{"table1", "Undervolting-induced instruction faults (Kogler et al.)", runTable1},
	{"delays", "§5.2/5.3 measured delays used by the simulation", runDelays},
	{"table2", "Score/power/frequency/efficiency response to undervolting", runTable2},
	{"fig12", "SPEC score, power, frequency vs voltage offset (i9-9900K)", runFig12},
	{"fig13", "Frequency-voltage pairs and the modified-IMUL curve", runFig13},
	{"table3", "Temperature guardband (fan RPM / core temperature)", runTable3},
	{"aging", "§5.6 aging guardband derivation", runAging},
	{"table4", "SPEC CPU2017 without SIMD instructions", runTable4},
	{"table5", "Out-of-order core configuration (gem5 substitute)", runTable5},
	{"fig14", "Slowdown with increasing IMUL latency", runFig14},
	{"fig5", "AES burst and the resulting DVFS curve switches", runFig5},
	{"fig6", "Long burst under the fV operating strategy", runFig6},
	{"fig7", "AES instruction timeline while VLC streams (gap sizes)", runFig7},
	{"fig8", "Voltage change delay, i9-9900K", runFig8},
	{"fig9", "Frequency change delay and stall, i9-9900K", runFig9},
	{"fig10", "Frequency change delay, Ryzen 7 7700X (no stall)", runFig10},
	{"fig11", "Per-core voltage-then-frequency change, Xeon Silver 4208", runFig11},
	{"table6", "Power saving and performance impact of SUIT (main result)", runTable6},
	{"table7", "Operating-strategy parameters and their sensitivity", runTable7},
	{"table8", "Benchmarks where compiling without SIMD beats SUIT", runTable8},
	{"fig16", "Per-benchmark performance and efficiency on CPU 𝒞 (fV)", runFig16},
	{"security", "§6.9 security analysis: reduction check and fault attack", runSecurity},
	{"covert", "§8 extension: curve-switching covert channel", runCovert},
	{"baselines", "§7 extension: Razor / ECC-guided / xDVS comparison", runBaselines},
	{"sched", "§7 extension: SUIT-aware task placement", runSched},
	{"variance", "run-to-run variance of flagship cells (mean ± σ)", runVariance},
	{"ablations", "design choices the paper argues for, each removed in turn", runAblations},
}

// Exit codes, shared with suitsweep: usage/environment errors exit 1,
// failed experiments exit 2, SIGINT exits 130.
const (
	exitOK     = 0
	exitUsage  = 1
	exitFailed = 2
	exitSignal = 130
)

func main() { os.Exit(run()) }

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment id to run, or 'all'")
		quick    = flag.Bool("quick", false, "shorter simulations (lower fidelity)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		outDir   = flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
		cacheDir = flag.String("cache", "", "directory for the on-disk result cache (reused across runs)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (flushed on exit, including SIGINT)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file (flushed on exit, including SIGINT)")
	)
	flag.CommandLine.Init("suittables", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return exitUsage
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "suittables: profile flush:", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	core.SetRunContext(ctx)

	core.SetEngineOptions(engine.Options{
		Workers:  *workers,
		BaseSeed: *seed,
		CacheDir: *cacheDir,
		Progress: os.Stderr,
		Label:    "suittables",
	})
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
	}

	torun, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	cells, failed, err := runExperiments(ctx, torun, newCfg(*quick, *seed), os.Stdout, os.Stderr, *outDir)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if *cacheDir != "" {
				fmt.Fprintf(os.Stderr, "suittables: interrupted — completed jobs are cached; re-run with the same -cache to continue\n")
			} else {
				fmt.Fprintf(os.Stderr, "suittables: interrupted — nothing was kept; run with -cache to make a re-run continue\n")
			}
			fmt.Fprintf(os.Stderr, "suittables: partial stats: %s\n", core.EngineStats())
			return exitSignal
		}
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	fmt.Fprintf(os.Stderr, "suittables: %s\n", core.EngineStats())
	for _, cl := range cells {
		if f := cl.fault(); f != "" {
			fmt.Fprintf(os.Stderr, "suittables: cell %s: %s\n", cl.id, f)
			failed = append(failed, cl.id)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "suittables: %d failed (experiments or paper cells): %s\n",
			len(failed), strings.Join(failed, " "))
		return exitFailed
	}
	return exitOK
}

func newCfg(quick bool, seed uint64) cfg {
	if quick {
		return cfg{quick: true, seed: seed, specInstr: 200_000_000, netInstr: 50_000_000}
	}
	return cfg{seed: seed, specInstr: 1_000_000_000, netInstr: 200_000_000}
}

// selectExperiments resolves -exp: "all", or comma-separated ids run in
// the order given.
func selectExperiments(spec string) ([]experiment, error) {
	if spec == "all" {
		return experiments, nil
	}
	var torun []experiment
	for _, id := range strings.Split(spec, ",") {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })
		if i < 0 {
			var known []string
			for _, e := range experiments {
				known = append(known, e.id)
			}
			return nil, fmt.Errorf("unknown experiment %q; known: %s", id, strings.Join(known, " "))
		}
		torun = append(torun, experiments[i])
	}
	return torun, nil
}

// runExperiments runs the experiments in order on stdout (with outDir,
// each one's output goes to outDir/<id>.txt instead) and ends with the
// paper-vs-measured table of the cells they returned. A failed
// experiment is reported on stderr and listed in failed; the rest still
// run. err is non-nil only when ctx is cancelled or an output file
// cannot be created.
func runExperiments(ctx context.Context, torun []experiment, c cfg, stdout, stderr io.Writer, outDir string) (cells []cell, failed []string, err error) {
	for _, e := range torun {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stdout, "==> %s — %s\n\n", e.id, e.desc)
		target := stdout
		var f *os.File
		if outDir != "" {
			if f, err = os.Create(fmt.Sprintf("%s/%s.txt", outDir, e.id)); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", e.id, err)
			}
			target = f
		}
		got, err := e.run(c, target)
		if f != nil {
			f.Close()
			fmt.Fprintf(stdout, "(written to %s/%s.txt)\n", outDir, e.id)
		}
		fmt.Fprintln(stdout)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, nil, err
			}
			fmt.Fprintf(stderr, "%s: %v\n", e.id, err)
			failed = append(failed, e.id)
			continue
		}
		for _, cl := range got {
			cl.id = e.id + " " + cl.id
			cells = append(cells, cl)
		}
	}
	return cells, failed, renderCells(stdout, cells)
}
