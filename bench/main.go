// Command bench is the repository benchmark. It runs five workloads that
// load the simulator's layers differently, each in a fresh child process,
// measures end-to-end metrics from outside the program, checks that the
// outputs are correct, and, with -trace, repeats each workload with spans
// around the calls into every layer to attribute time per layer.
//
// Usage, from the repository root (bench/run.sh builds this command
// inside the checkout and runs it):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|FILE] [-runs N] [-out FILE]
//	bash bench/run.sh -compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]
//
// Without -workload every workload runs, one after another. Each prints
// its metrics as "workload metric value unit" lines; a single workload
// ends with one JSON line holding its end-to-end metrics (-trace 0) or
// its per-layer metrics (-trace 1 or FILE). The exit status is nonzero if
// any correctness check fails. README.md describes the workloads, the
// metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupProbes is how many extra children per workload only set up,
	// so setup_s is a median over setupProbes+1 samples.
	setupProbes = 10
	// childTimeout bounds any one child process.
	childTimeout = 10 * time.Minute
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run only this workload (default: all of them)")
		seed      = fs.Uint64("seed", 1, "seed the workload inputs are generated from")
		seconds   = fs.Float64("seconds", 10, "least length of each workload's timed phase, after a warm-up of a third as long")
		traceArg  = fs.String("trace", "0", "0: untraced; 1: add a traced run for per-layer metrics; FILE: as 1, and write its spans to FILE")
		runs      = fs.Int("runs", 1, "repeat the whole run this often, recording every repetition in the report")
		out       = fs.String("out", "", "write the JSON report to this file")
		compare   = fs.String("compare", "", "compare report sets: -compare BASE[,BASE...] NEW[,NEW...]")
		benchJSON = fs.String("benchmark", "BENCHMARK.json", "benchmark description holding the metric bounds, for -compare")
		child     = fs.String("child", "", "internal: run one workload in this process (setup or run)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare takes the base reports as its value and the new reports as one argument")
			return 2
		}
		ok, err := compareReports(*benchJSON, strings.Split(*compare, ","), strings.Split(fs.Arg(0), ","), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench: compare:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || *runs < 1 {
		fs.Usage()
		return 2
	}
	if *child != "" {
		if err := runChild(*child, *name, *seed, *seconds, *traceArg, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
			return 1
		}
		return 0
	}

	var names []string
	if *name != "" {
		if _, err := workloadByName(*name); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		names = []string{*name}
	} else {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	spansFile := ""
	if *traceArg != "0" && *traceArg != "1" {
		spansFile = *traceArg
	}
	rep := &report{Seed: *seed, Seconds: *seconds}
	var spanSets []workloadSpans
	correct := true
	var res, tres *result
	for i := 0; i < *runs; i++ {
		set := map[string]*result{}
		for _, n := range names {
			var err error
			if res, tres, err = measure(n, *seed, *seconds, *traceArg); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
				return 1
			}
			printResult(stdout, stderr, n, res, tres)
			correct = correct && res.Correct && (tres == nil || tres.Correct)
			if tres != nil {
				res.Layers, res.Self = tres.Layers, tres.Self
				if spansFile != "" {
					spanSets = append(spanSets, workloadSpans{Workload: n, Spans: tres.Spans})
				}
			}
			set[n] = res
		}
		rep.Runs = append(rep.Runs, set)
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if spansFile != "" {
		if err := writeSpans(spansFile, spanSets); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(names) == 1 {
		attempted, failed, defs, values := res.Attempted, res.Failed, endToEnd, res.Metrics
		if tres != nil {
			attempted, failed = attempted+tres.Attempted, failed+tres.Failed
			defs, values = perLayer, tres.Layers
		}
		if err := printFinal(stdout, correct, attempted, failed, defs, values); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !correct {
		fmt.Fprintln(stderr, "bench: FAIL: a correctness check failed")
		return 1
	}
	return 0
}

// measure runs one workload: setupProbes children that only set up, then
// the untraced run, and with tracing a traced run after it. The parent
// times each child from exec to its ready line (setup_s) and reads the
// untraced child's peak resident set (peak_rss_mb).
func measure(name string, seed uint64, seconds float64, traceArg string) (res, tres *result, err error) {
	var setup []float64
	for i := 0; i < setupProbes; i++ {
		s, _, _, err := spawn(name, "setup", seed, seconds, "0")
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, s)
	}
	s, res, rss, err := spawn(name, "run", seed, seconds, "0")
	if err != nil {
		return nil, nil, err
	}
	res.Metrics["setup_s"] = median(append(setup, s))
	res.Metrics["peak_rss_mb"] = rss
	for _, m := range endToEnd {
		if v := res.Metrics[m.Name]; !(v > 0) || math.IsInf(v, 0) {
			res.fail("%s: %s was not measured (%v)", name, m.Name, v)
			res.Metrics[m.Name] = 0
		}
	}
	if traceArg == "0" {
		return res, nil, nil
	}
	if _, tres, _, err = spawn(name, "run", seed, seconds, traceArg); err != nil {
		return nil, nil, err
	}
	// Tracing overhead: how much slower the traced run's cold phase went.
	tres.Layers["tracing.overhead_pct"] = (res.Metrics["points_per_s"]/tres.Metrics["points_per_s"] - 1) * 100
	for _, m := range perLayer {
		// A layer this workload does not reach reads 0.
		if v := tres.Layers[m.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
			tres.fail("%s: %s is %v", name, m.Name, v)
			tres.Layers[m.Name] = 0
		}
	}
	return res, tres, nil
}

// spawn runs this program as a child for one workload. It returns the
// seconds from exec to the child's ready line, the child's result (for
// role "run") and its peak resident set in MB.
func spawn(name, role string, seed uint64, seconds float64, traceArg string) (setupS float64, res *result, rssMB float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", role, "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", traceArg)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	br := bufio.NewReader(pipe)
	line, rerr := br.ReadString('\n')
	setupS = time.Since(start).Seconds()
	rest, _ := io.ReadAll(br) // the exit status below reports a broken child
	if err := cmd.Wait(); err != nil {
		return 0, nil, 0, fmt.Errorf("%s child: %w", role, err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, nil, 0, fmt.Errorf("%s child: no ready line (got %q, %v)", role, line, rerr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	if role != "run" {
		return setupS, nil, rssMB, nil
	}
	res = new(result)
	if err := json.Unmarshal(rest, res); err != nil {
		return 0, nil, 0, fmt.Errorf("run child: bad result: %w", err)
	}
	return setupS, res, rssMB, nil
}

// runChild is the child side: start the workload, print the ready line,
// and for role "run" run the timed phase and print the result as JSON.
func runChild(role, name string, seed uint64, seconds float64, traceArg string, stdout io.Writer) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "suit-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rec *recorder
	if traceArg != "0" {
		rec = newRecorder()
	}
	inst, err := w.start(env{seed: seed, rec: rec, tmpDir: dir})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	if role == "setup" {
		return inst.close()
	}
	res, err := inst.run(seconds)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if rec != nil {
		spans := rec.snapshot()
		res.Self = selfTimes(spans)
		if traceArg != "1" {
			res.Spans = spans
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}

// printResult prints one workload's metrics as "workload metric value
// unit" lines, its notes and self times as comments, and its failed
// checks on stderr.
func printResult(stdout, stderr io.Writer, name string, res, tres *result) {
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", name, m.Name, res.Metrics[m.Name], m.Unit)
	}
	fmt.Fprintf(stdout, "%s output_digest %s\n", name, res.Digest)
	fmt.Fprintf(stdout, "%s failed %d of %d attempted\n", name, res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "FAIL %s\n", p)
	}
	if tres == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", name, m.Name, tres.Layers[m.Name], m.Unit)
	}
	for _, lt := range tres.Self {
		fmt.Fprintf(stdout, "# %s self time of %s spans: %.1f ms over %d\n", name, lt.Name, lt.SelfMS, lt.Spans)
	}
	for _, n := range tres.Notes {
		fmt.Fprintf(stdout, "# traced: %s\n", n)
	}
	for _, p := range tres.Problems {
		fmt.Fprintf(stderr, "FAIL traced: %s\n", p)
	}
}

// printFinal prints the one-line JSON result of a single-workload run.
func printFinal(w io.Writer, correct bool, attempted, failed int, defs []metricDef, values map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
