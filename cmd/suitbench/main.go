// Command suitbench is the CI performance harness for the simulator's
// hot path. It runs the zero-allocation steady-state benchmarks
// (BenchmarkMachineHotPath in internal/cpu), times a smoke-sized
// suitsweep grid end to end, and writes the combined measurement to a
// JSON report (bench.json by default; CI derives a versioned name).
//
// The exit status is the regression gate, on two axes:
//
//   - any hot-path benchmark that reports a nonzero allocs/op fails the
//     run, because a steady-state allocation is exactly the class of
//     regression the indexed event queue and Machine.Reset were built
//     to eliminate;
//   - with -compare BASELINE.json, a smoke-sweep throughput below 85%
//     of the baseline report's points/s fails the run, so the committed
//     baseline pins a trajectory every PR must hold; a baseline swept at
//     another worker count (-j, default 1) fails it too;
//   - also with -compare, any hot-path benchmark whose min ns/op
//     exceeds 125% of its baseline entry fails the run (benchmarks
//     absent from the baseline are skipped, so adding one never
//     requires editing history).
//
// Usage:
//
//	suitbench [-out bench.json] [-compare BENCH_16.json] [-count 3] [-instr 2e6] [-j 1] [-skip-sweep]
//
// Run it from the repository root: it shells out to the go tool for the
// benchmarks and builds cmd/suitsweep for the throughput timing.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"suit/internal/workload"
)

// benchStat aggregates the -count repetitions of one benchmark: the
// minimum ns/op (least-noise estimate) and the maximum allocs/op and
// B/op (the gate must see the worst repetition).
type benchStat struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	MinNsPerOp  float64 `json:"min_ns_per_op"`
	MaxAllocsOp float64 `json:"max_allocs_per_op"`
	MaxBytesOp  float64 `json:"max_bytes_per_op"`
}

// sweepStat is the end-to-end throughput of a cold smoke sweep: the
// full 240-parameter × 5-workload grid (1200 scenario points) at a
// reduced instruction count.
type sweepStat struct {
	Points       int     `json:"points"`
	Instructions uint64  `json:"instructions_per_point"`
	Seconds      float64 `json:"seconds"`
	PointsPerSec float64 `json:"points_per_sec"`
	Workers      int     `json:"workers"`
}

type report struct {
	GoVersion  string      `json:"go_version"`
	BenchCount int         `json:"bench_count"`
	Benchmarks []benchStat `json:"benchmarks"`
	// Sweep is the smoke-sweep throughput. Baselines written before the
	// batching toggle was removed also carry a sweep_unbatched leg;
	// decoding ignores it.
	Sweep       *sweepStat `json:"sweep,omitempty"`
	AllocFree   bool       `json:"steady_state_alloc_free"`
	ElapsedSecs float64    `json:"harness_seconds"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		out       = flag.String("out", "bench.json", "JSON report path")
		compare   = flag.String("compare", "", "baseline report to gate against: fail if sweep points/s drops more than 15% below it")
		count     = flag.Int("count", 3, "benchmark repetitions (-count for go test)")
		benchPat  = flag.String("bench", "BenchmarkMachineHotPath", "benchmark pattern (-bench for go test)")
		instrStr  = flag.String("instr", "2e6", "instructions per sweep point for the smoke grid")
		workers   = flag.Int("j", 1, "sweep workers; -compare requires the baseline's count")
		skipSweep = flag.Bool("skip-sweep", false, "measure only the benchmarks, not the smoke sweep")
	)
	flag.Parse()
	instr, err := workload.ParseInstructions(*instrStr, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -instr: %v\n", err)
		return 2
	}

	start := time.Now()
	rep := report{GoVersion: runtime.Version(), BenchCount: *count, AllocFree: true}

	stats, err := runBenchmarks(*benchPat, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "suitbench:", err)
		return 1
	}
	rep.Benchmarks = stats

	if !*skipSweep {
		sw, err := runSmokeSweep(instr, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "suitbench:", err)
			return 1
		}
		rep.Sweep = sw
		fmt.Printf("smoke sweep: %d points in %.2fs = %.1f points/s (instr=%s, j=%d)\n",
			sw.Points, sw.Seconds, sw.PointsPerSec, *instrStr, *workers)
	}

	code := 0
	for _, s := range stats {
		fmt.Printf("%-50s %12.0f ns/op %8.0f B/op %6.0f allocs/op (%d runs)\n",
			s.Name, s.MinNsPerOp, s.MaxBytesOp, s.MaxAllocsOp, s.Runs)
		if s.MaxAllocsOp > 0 {
			fmt.Fprintf(os.Stderr, "suitbench: FAIL: %s allocates %.0f allocs/op in steady state, want 0\n",
				s.Name, s.MaxAllocsOp)
			rep.AllocFree = false
			code = 1
		}
	}
	if len(stats) == 0 {
		fmt.Fprintf(os.Stderr, "suitbench: no benchmarks matched %q\n", *benchPat)
		return 1
	}

	if *compare != "" {
		if err := compareBaseline(*compare, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "suitbench: FAIL:", err)
			code = 1
		}
	}

	rep.ElapsedSecs = time.Since(start).Seconds()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "suitbench:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "suitbench:", err)
		return 1
	}
	fmt.Printf("report written to %s\n", *out)
	return code
}

// regressionFloor is the fraction of the baseline's sweep throughput a
// run must hold: below 85% (a >15% regression) the gate fails.
const regressionFloor = 0.85

// nsCeiling is the per-benchmark time budget relative to the baseline:
// a hot-path benchmark whose min ns/op exceeds 125% of the committed
// baseline's fails the gate. Looser than the sweep floor because 1x
// micro-benchmark repetitions are noisier than a 1200-point wall-clock
// measurement.
const nsCeiling = 1.25

// gateBenchmarks gates each measured benchmark's min ns/op against the
// baseline report. A benchmark missing from the baseline is noted and
// skipped (new benchmarks must not require a baseline edit to land);
// unusable values — zero, negative, NaN, Inf — fail loudly on either
// side rather than producing a vacuous ceiling.
func gateBenchmarks(path string, base, cur []benchStat) error {
	baseline := make(map[string]benchStat, len(base))
	for _, b := range base {
		baseline[b.Name] = b
	}
	for _, c := range cur {
		b, ok := baseline[c.Name]
		if !ok {
			fmt.Printf("compare (bench): %s has no baseline in %s; skipped\n", c.Name, path)
			continue
		}
		if math.IsInf(b.MinNsPerOp, 0) || !(b.MinNsPerOp > 0) {
			return fmt.Errorf("baseline %s in %s has unusable ns/op %v; refusing a vacuous gate", c.Name, path, b.MinNsPerOp)
		}
		if math.IsInf(c.MinNsPerOp, 0) || !(c.MinNsPerOp > 0) {
			return fmt.Errorf("this run's %s has unusable ns/op %v; refusing a vacuous gate", c.Name, c.MinNsPerOp)
		}
		ceiling := b.MinNsPerOp * nsCeiling
		fmt.Printf("compare (bench): %-44s %12.0f ns/op vs baseline %12.0f (ceiling %.0f = +25%%)\n",
			c.Name, c.MinNsPerOp, b.MinNsPerOp, ceiling)
		if c.MinNsPerOp > ceiling {
			return fmt.Errorf("%s regressed >25%%: %.0f ns/op > ceiling %.0f (baseline %.0f in %s)",
				c.Name, c.MinNsPerOp, ceiling, b.MinNsPerOp, path)
		}
	}
	return nil
}

// checkThroughput rejects a sweep stat whose points/s cannot gate
// anything: missing, zero, negative, NaN or Inf. A corrupt baseline
// used to slip through as floor = 0.85 × 0, making the gate vacuous —
// it must fail loudly instead.
func checkThroughput(what, path string, s *sweepStat) error {
	if s == nil {
		return fmt.Errorf("%s in %s has no sweep measurement", what, path)
	}
	pps := s.PointsPerSec
	if math.IsInf(pps, 0) || !(pps > 0) { // !(x > 0) also catches NaN
		return fmt.Errorf("%s in %s has unusable sweep throughput %v points/s; refusing a vacuous gate", what, path, pps)
	}
	return nil
}

// compareBaseline gates the current report's benchmarks and smoke-sweep
// throughput against a committed baseline report.
func compareBaseline(path string, rep *report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if err := gateBenchmarks(path, base.Benchmarks, rep.Benchmarks); err != nil {
		return err
	}
	if rep.Sweep == nil {
		return fmt.Errorf("this run skipped the smoke sweep (-skip-sweep); cannot compare against %s", path)
	}
	if err := checkThroughput("baseline", path, base.Sweep); err != nil {
		return err
	}
	if err := checkThroughput("this run", "current report", rep.Sweep); err != nil {
		return err
	}
	// Throughput scales with the worker count, so a floor taken at one
	// count says nothing about a run at another.
	if b, c := base.Sweep.Workers, rep.Sweep.Workers; b != c {
		return fmt.Errorf("baseline sweep in %s ran at -j %d, this run at -j %d; rerun with -j %d or record a new baseline",
			path, b, c, b)
	}
	cur, old := rep.Sweep.PointsPerSec, base.Sweep.PointsPerSec
	floor := old * regressionFloor
	fmt.Printf("compare (sweep): %.1f points/s vs baseline %.1f from %s (floor %.1f = -15%%)\n",
		cur, old, path, floor)
	if cur < floor {
		return fmt.Errorf("sweep throughput regressed >15%%: %.1f points/s < floor %.1f (baseline %.1f in %s)",
			cur, floor, old, path)
	}
	return nil
}

// runBenchmarks shells out to go test and aggregates the repetitions.
func runBenchmarks(pattern string, count int) ([]benchStat, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchtime", "1x", "-count", strconv.Itoa(count),
		"./internal/cpu")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, buf.String())
	}
	byName := map[string]*benchStat{}
	var order []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		s, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		agg, seen := byName[s.Name]
		if !seen {
			cp := s
			byName[s.Name] = &cp
			order = append(order, s.Name)
			continue
		}
		agg.Runs += s.Runs
		agg.MinNsPerOp = min(agg.MinNsPerOp, s.MinNsPerOp)
		agg.MaxAllocsOp = max(agg.MaxAllocsOp, s.MaxAllocsOp)
		agg.MaxBytesOp = max(agg.MaxBytesOp, s.MaxBytesOp)
	}
	var stats []benchStat
	for _, name := range order {
		stats = append(stats, *byName[name])
	}
	return stats, nil
}

// parseBenchLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkMachineHotPath/dense-trap-8  1  2049713 ns/op  0 B/op  0 allocs/op
func parseBenchLine(line string) (benchStat, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchStat{}, false
	}
	s := benchStat{Name: trimCPUSuffix(f[0]), Runs: 1}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchStat{}, false
		}
		switch f[i+1] {
		case "ns/op":
			s.MinNsPerOp = v
		case "B/op":
			s.MaxBytesOp = v
		case "allocs/op":
			s.MaxAllocsOp = v
		}
	}
	return s, s.MinNsPerOp > 0
}

// trimCPUSuffix drops go test's trailing -<GOMAXPROCS> so repetitions
// aggregate under a stable name across machines.
func trimCPUSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// runSmokeSweep builds cmd/suitsweep and times a cold full-grid run at
// a smoke instruction count. 240 parameter points × 5 workloads = 1200
// scenario points; the binary prints its ranking to stdout, which the
// harness discards — only wall time matters here.
func runSmokeSweep(instr uint64, workers int) (*sweepStat, error) {
	dir, err := os.MkdirTemp("", "suitbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "suitsweep")
	build := exec.Command("go", "build", "-o", bin, "./cmd/suitsweep")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building suitsweep: %w", err)
	}

	sweep := exec.Command(bin, "-chip", "C",
		"-instr", strconv.FormatUint(instr, 10),
		"-j", strconv.Itoa(workers))
	sweep.Stdout = nil // ranking discarded; determinism is tested elsewhere
	sweep.Stderr = os.Stderr
	start := time.Now()
	if err := sweep.Run(); err != nil {
		return nil, fmt.Errorf("suitsweep smoke run: %w", err)
	}
	elapsed := time.Since(start).Seconds()

	const points = 240 * 5
	return &sweepStat{
		Points:       points,
		Instructions: instr,
		Seconds:      elapsed,
		PointsPerSec: float64(points) / elapsed,
		Workers:      workers,
	}, nil
}
