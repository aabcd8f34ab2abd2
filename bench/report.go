package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// metricDef names a metric, its unit and which direction is better;
// BENCHMARK.json adds each end-to-end metric's bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported for
// every workload by the untraced run. For the in-process workloads a job
// is one cold sweep request (a round); for the served ones it is a
// fresh submission followed to its result.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "points_per_s", Unit: "points/s", Better: "higher"},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the traced run's metrics, named layer.metric; a workload
// that does not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "trace.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "trace.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cpu.step_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu.minstr_per_s", Unit: "Minstr/s", Better: "higher"},
	{Name: "cpu.exceptions_per_point", Unit: "count", Better: "lower"},
	{Name: "cpu.switches_per_point", Unit: "count", Better: "lower"},
	{Name: "cpu.deadline_fires_per_point", Unit: "count", Better: "lower"},
	{Name: "cpu.emulated_per_point", Unit: "count", Better: "lower"},
	{Name: "core.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.run_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.retried", Unit: "count", Better: "lower"},
	{Name: "engine.failed", Unit: "count", Better: "lower"},
	{Name: "service.post_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.handler_ms.submit", Unit: "ms", Better: "lower"},
	{Name: "service.handler_ms.events", Unit: "ms", Better: "lower"},
	{Name: "service.files_written", Unit: "count", Better: "lower"},
	{Name: "service.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "service.job_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "dist.claim_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.lease_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.idle_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.claim_yield", Unit: "ratio", Better: "higher"},
	{Name: "dist.post_retries", Unit: "count", Better: "lower"},
	{Name: "dist.local_fallbacks", Unit: "count", Better: "lower"},
	{Name: "dist.conflicts", Unit: "count", Better: "lower"},
	{Name: "dist.handler_ms.claim", Unit: "ms", Better: "lower"},
	{Name: "dist.handler_ms.heartbeat", Unit: "ms", Better: "lower"},
	{Name: "dist.handler_ms.result", Unit: "ms", Better: "lower"},
	{Name: "tracing.overhead_pct", Unit: "%", Better: "lower"},
}

// setupFloorS is the least set-up slowdown compare counts as a
// regression: process start jitters by a few milliseconds, more than
// 10% of a set-up this short.
const setupFloorS = 0.005

// report is the JSON file a run writes: every repetition's results by
// workload, spans left out.
type report struct {
	Seed    uint64               `json:"seed"`
	Seconds float64              `json:"seconds"`
	Runs    []map[string]*result `json:"runs"`
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRuns loads the runs of every listed report file.
func readRuns(paths []string) ([]map[string]*result, error) {
	var runs []map[string]*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		runs = append(runs, rep.Runs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no runs in %s", strings.Join(paths, ", "))
	}
	return runs, nil
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &b, nil
}

// Verdicts of one (metric, workload) comparison.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's values on the base and new sides. The new
// median may be worse than the base median by at most the bound (for
// setup_s, at least setupFloorS). When either side's quartile spread is
// wider than that allowance the difference cannot be resolved, unless
// every new value is better than every base value. Missing, zero, NaN or
// Inf values are an error, never a pass.
func judge(m metricDef, base, cur []float64) (string, error) {
	for _, side := range []struct {
		name string
		xs   []float64
	}{{"base", base}, {"new", cur}} {
		if len(side.xs) == 0 {
			return "", fmt.Errorf("%s: no %s values", m.Name, side.name)
		}
		for _, x := range side.xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
				return "", fmt.Errorf("%s: unusable %s value %v", m.Name, side.name, x)
			}
		}
	}
	sign := 1.0 // worsening is an increase
	if m.Better == "higher" {
		sign = -1
	}
	bm, cm := median(base), median(cur)
	allowed := m.Bound * math.Abs(bm)
	if m.Name == "setup_s" {
		allowed = max(allowed, setupFloorS)
	}
	rel := allowed / math.Abs(bm)
	worse := sign * (cm - bm)
	if spread(base) > rel || spread(cur) > rel {
		if allBetter(sign, base, cur) {
			return verdictBetter, nil
		}
		return verdictUnresolved, nil
	}
	switch {
	case worse > allowed:
		return verdictWorse, nil
	case -worse > allowed:
		return verdictBetter, nil
	}
	return verdictSame, nil
}

// allBetter reports whether every new value beats every base value.
func allBetter(sign float64, base, cur []float64) bool {
	for _, b := range base {
		for _, c := range cur {
			if sign*(c-b) >= 0 {
				return false
			}
		}
	}
	return true
}

// judgeFailed gates failed_frac, the failed share of attempted
// operations, at an absolute zero: any failed operation on the new side
// is a regression.
func judgeFailed(cur []*result) (string, error) {
	for _, r := range cur {
		if r.Attempted < 1 {
			return "", errors.New("failed_frac: a run attempted nothing")
		}
		if r.Failed > 0 {
			return verdictWorse, nil
		}
	}
	return verdictSame, nil
}

// compareReports prints, for every workload and end-to-end metric, each
// side's median and quartiles and the verdict, and reports whether no
// pair regressed. Any unusable value is an error.
func compareReports(benchPath string, basePaths, newPaths []string, w io.Writer) (bool, error) {
	bench, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	base, err := readRuns(basePaths)
	if err != nil {
		return false, err
	}
	cur, err := readRuns(newPaths)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-13s %30s %30s  %s\n", "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "verdict")
	for _, wl := range bench.Workloads {
		bres, err := resultsOf(base, wl.Name, "base")
		if err != nil {
			return false, err
		}
		cres, err := resultsOf(cur, wl.Name, "new")
		if err != nil {
			return false, err
		}
		for _, m := range bench.EndToEnd {
			bv, err := valuesOf(bres, m.Name, "base")
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.Name, err)
			}
			cv, err := valuesOf(cres, m.Name, "new")
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.Name, err)
			}
			v, err := judge(m, bv, cv)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.Name, err)
			}
			ok = ok && v != verdictWorse
			fmt.Fprintf(w, "%-13s %-13s %30s %30s  %s (bound %g)\n", wl.Name, m.Name, summary(bv), summary(cv), v, m.Bound)
		}
		v, err := judgeFailed(cres)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.Name, err)
		}
		ok = ok && v != verdictWorse
		fmt.Fprintf(w, "%-13s %-13s %30s %30s  %s (bound 0, absolute)\n", wl.Name, "failed_frac", failedSummary(bres), failedSummary(cres), v)
		fmt.Fprintf(w, "%-13s output_digest: %s\n", wl.Name, digestSummary(bres, cres))
	}
	return ok, nil
}

// resultsOf picks one workload's result out of every run.
func resultsOf(runs []map[string]*result, workload, side string) ([]*result, error) {
	var out []*result
	for i, run := range runs {
		r, ok := run[workload]
		if !ok {
			return nil, fmt.Errorf("%s run %d has no %s result", side, i+1, workload)
		}
		out = append(out, r)
	}
	return out, nil
}

// valuesOf collects one metric from every run; a run without it is an
// error.
func valuesOf(rs []*result, metric, side string) ([]float64, error) {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		v, ok := r.Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("%s: %s run %d has no value", metric, side, i+1)
		}
		xs[i] = v
	}
	return xs, nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

func failedSummary(rs []*result) string {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return fmt.Sprintf("%d/%d", failed, attempted)
}

// digestSummary says whether every run, on both sides, produced one
// output digest. It is informational: a change may alter outputs on
// purpose.
func digestSummary(base, cur []*result) string {
	distinct := func(rs []*result) map[string]bool {
		m := map[string]bool{}
		for _, r := range rs {
			m[r.Digest] = true
		}
		return m
	}
	b, c := distinct(base), distinct(cur)
	if len(b) == 1 && len(c) == 1 && b[cur[0].Digest] {
		return "identical on every run"
	}
	return fmt.Sprintf("%d distinct on base, %d on new", len(b), len(c))
}
