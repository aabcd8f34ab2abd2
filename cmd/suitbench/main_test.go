package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	s, ok := parseBenchLine("BenchmarkMachineHotPath/dense-trap-8 \t 1 \t 2049713 ns/op \t 128 B/op \t 2 allocs/op")
	if !ok {
		t.Fatal("valid bench line rejected")
	}
	if s.Name != "BenchmarkMachineHotPath/dense-trap" {
		t.Errorf("name %q: -8 CPU suffix not trimmed", s.Name)
	}
	if s.MinNsPerOp != 2049713 || s.MaxBytesOp != 128 || s.MaxAllocsOp != 2 {
		t.Errorf("parsed %+v", s)
	}

	for _, line := range []string{
		"ok  \tsuit/internal/cpu\t0.31s",
		"goos: linux",
		"PASS",
		"BenchmarkBroken-8 not numbers here",
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("non-result line parsed as a benchmark: %q", line)
		}
	}

	// A benchmark without -benchmem style columns still parses.
	s, ok = parseBenchLine("BenchmarkMachineEventLoop-4   5   304958 ns/op")
	if !ok || s.MinNsPerOp != 304958 || s.MaxAllocsOp != 0 {
		t.Errorf("plain ns/op line: ok=%v %+v", ok, s)
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":           "BenchmarkX",
		"BenchmarkX/sub-case-16": "BenchmarkX/sub-case",
		"BenchmarkX/sub-case":    "BenchmarkX/sub-case",
		"BenchmarkX":             "BenchmarkX",
	}
	for in, want := range cases {
		if got := trimCPUSuffix(in); got != want {
			t.Errorf("trimCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// writeBaseline drops a baseline report JSON into a temp dir and
// returns its path.
func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_BASE.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func goodReport() *report {
	return &report{Sweep: &sweepStat{Points: 1200, PointsPerSec: 450, Workers: 1}}
}

// A corrupt baseline — zero, negative, NaN, Inf or absent points/s —
// must be a hard error, not a vacuous floor of 0.85 × 0 that every run
// sails over.
func TestCompareBaselineRejectsCorruptBaseline(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"zero", `{"sweep":{"points":1200,"points_per_sec":0}}`},
		{"negative", `{"sweep":{"points":1200,"points_per_sec":-12.5}}`},
		{"missing sweep", `{"bench_count":3}`},
		{"null sweep", `{"sweep":null}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeBaseline(t, tc.body)
			err := compareBaseline(path, goodReport())
			if err == nil {
				t.Fatalf("corrupt baseline %s accepted; gate is vacuous", tc.name)
			}
			if !strings.Contains(err.Error(), "sweep") {
				t.Errorf("error should name the sweep measurement, got: %v", err)
			}
		})
	}
}

// The current run's own stats must be usable too: a NaN or Inf
// points/s on our side would also make the comparison meaningless.
func TestCompareBaselineRejectsUnusableCurrentRun(t *testing.T) {
	path := writeBaseline(t, `{"sweep":{"points_per_sec":400}}`)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		rep := goodReport()
		rep.Sweep.PointsPerSec = bad
		if err := compareBaseline(path, rep); err == nil {
			t.Errorf("current throughput %v accepted", bad)
		}
	}
}

// Baselines written while the batching toggle existed (BENCH_7 to
// BENCH_10) also carry a sweep_unbatched leg; only sweep gates.
func TestCompareBaselineGatesSweep(t *testing.T) {
	path := writeBaseline(t,
		`{"sweep":{"points_per_sec":400,"workers":1},"sweep_unbatched":{"points_per_sec":5000}}`)

	if err := compareBaseline(path, goodReport()); err != nil {
		t.Fatalf("healthy report failed the gate: %v", err)
	}

	rep := goodReport()
	rep.Sweep.PointsPerSec = 400 * regressionFloor * 0.99
	if err := compareBaseline(path, rep); err == nil {
		t.Error("regression below the floor passed the gate")
	}

	// The committed baseline CI compares against still parses and gates.
	rep = goodReport()
	rep.Sweep.PointsPerSec = 1e6
	if err := compareBaseline("../../BENCH_16.json", rep); err != nil {
		t.Errorf("BENCH_16.json no longer usable as a baseline: %v", err)
	}
}

// Baselines committed before the batched/unbatched split carry a
// single sweep stat, the same shape reports have now.
func TestCompareBaselineLegacySingleSweep(t *testing.T) {
	path := writeBaseline(t, `{"sweep":{"points":1200,"points_per_sec":290,"workers":1}}`)

	if err := compareBaseline(path, goodReport()); err != nil {
		t.Fatalf("legacy baseline rejected: %v", err)
	}

	rep := goodReport()
	rep.Sweep.PointsPerSec = 290 * regressionFloor * 0.99
	if err := compareBaseline(path, rep); err == nil {
		t.Error("sweep ignored the legacy baseline floor")
	}
}

func TestCompareBaselineSkippedSweep(t *testing.T) {
	path := writeBaseline(t, `{"sweep":{"points_per_sec":400}}`)
	rep := &report{}
	if err := compareBaseline(path, rep); err == nil {
		t.Error("report without any sweep measurement accepted")
	}
}

// The per-benchmark ns/op ceiling: regressions beyond +25% fail, new
// benchmarks without a baseline entry are skipped, and unusable values
// on either side are hard errors rather than vacuous ceilings.
func TestGateBenchmarks(t *testing.T) {
	base := []benchStat{
		{Name: "BenchmarkMachineHotPath/dense-trap", MinNsPerOp: 1000},
		{Name: "BenchmarkMachineHotPath/sparse-trap", MinNsPerOp: 100},
	}

	ok := []benchStat{
		{Name: "BenchmarkMachineHotPath/dense-trap", MinNsPerOp: 1000 * nsCeiling * 0.99},
		{Name: "BenchmarkMachineHotPath/sparse-trap", MinNsPerOp: 90},
		{Name: "BenchmarkMachineHotPath/brand-new", MinNsPerOp: 5e9}, // no baseline: skipped
	}
	if err := gateBenchmarks("BASE.json", base, ok); err != nil {
		t.Fatalf("healthy benchmarks failed the gate: %v", err)
	}

	slow := []benchStat{
		{Name: "BenchmarkMachineHotPath/dense-trap", MinNsPerOp: 1000 * nsCeiling * 1.01},
	}
	if err := gateBenchmarks("BASE.json", base, slow); err == nil {
		t.Error("regression beyond the ceiling passed the gate")
	} else if !strings.Contains(err.Error(), "dense-trap") {
		t.Errorf("error should name the benchmark, got: %v", err)
	}

	for _, bad := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		b := []benchStat{{Name: "x", MinNsPerOp: bad}}
		c := []benchStat{{Name: "x", MinNsPerOp: 100}}
		if err := gateBenchmarks("BASE.json", b, c); err == nil {
			t.Errorf("unusable baseline ns/op %v accepted", bad)
		}
		if err := gateBenchmarks("BASE.json", c, b); err == nil {
			t.Errorf("unusable current ns/op %v accepted", bad)
		}
	}
}

// compareBaseline runs the benchmark gate before the sweep legs.
func TestCompareBaselineGatesBenchmarks(t *testing.T) {
	path := writeBaseline(t, `{
		"benchmarks":[{"name":"BenchmarkMachineHotPath/dense-trap","min_ns_per_op":1000}],
		"sweep":{"points_per_sec":400,"workers":1}}`)
	rep := goodReport()
	rep.Benchmarks = []benchStat{{Name: "BenchmarkMachineHotPath/dense-trap", MinNsPerOp: 2000}}
	if err := compareBaseline(path, rep); err == nil {
		t.Error("benchmark regression passed compareBaseline")
	}
	rep.Benchmarks[0].MinNsPerOp = 1100
	if err := compareBaseline(path, rep); err != nil {
		t.Errorf("benchmark within ceiling failed compareBaseline: %v", err)
	}
}

// A sweep floor only means something at the worker count it was taken
// at: a baseline swept at another -j, or one that never recorded its
// count, fails the comparison with a message naming both counts.
func TestCompareBaselineRejectsWorkerMismatch(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"sweep":{"points_per_sec":400,"workers":2}}`, "-j 2, this run at -j 1"},
		{`{"sweep":{"points_per_sec":400}}`, "-j 0, this run at -j 1"},
	} {
		err := compareBaseline(writeBaseline(t, tc.body), goodReport())
		if err == nil {
			t.Errorf("baseline %s accepted at a different worker count", tc.body)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("baseline %s: error %q should contain %q", tc.body, err, tc.want)
		}
	}
	// The same count still gates on throughput alone.
	if err := compareBaseline(writeBaseline(t, `{"sweep":{"points_per_sec":400,"workers":1}}`), goodReport()); err != nil {
		t.Errorf("matching worker count rejected: %v", err)
	}
}
