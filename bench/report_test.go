package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var lowerMS = metricDef{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
var higherPPS = metricDef{Name: "points_per_s", Unit: "points/s", Better: "higher", Bound: 0.1}

func TestJudgeBothDirections(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    metricDef
		cur  []float64
		want string
	}{
		{"lower within bound", lowerMS, []float64{108, 109, 107, 108, 108}, verdictSame},
		{"lower past bound", lowerMS, []float64{115, 116, 114, 115, 115}, verdictWorse},
		{"lower improved", lowerMS, []float64{80, 81, 79, 80, 80}, verdictBetter},
		{"higher within bound", higherPPS, []float64{92, 93, 91, 92, 92}, verdictSame},
		{"higher past bound", higherPPS, []float64{85, 86, 84, 85, 85}, verdictWorse},
		{"higher improved", higherPPS, []float64{120, 121, 119, 120, 120}, verdictBetter},
		// A side whose quartiles spread wider than the bound cannot
		// resolve a difference ...
		{"noisy", higherPPS, []float64{60, 140, 85, 100, 75}, verdictUnresolved},
		// ... unless every new run beats every base run.
		{"noisy but all better", higherPPS, []float64{150, 300, 200, 250, 180}, verdictBetter},
	} {
		got, err := judge(c.m, steady, c.cur)
		if err != nil || got != c.want {
			t.Errorf("%s: judge = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
}

func TestJudgeSetupFloor(t *testing.T) {
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1}
	base := []float64{0.010, 0.010, 0.010}
	// 4 ms slower is 40%, far past the 10% bound, yet under the 5 ms floor.
	if got, err := judge(setup, base, []float64{0.014, 0.014, 0.014}); err != nil || got != verdictSame {
		t.Errorf("4 ms slower set-up: %q, %v; want %q", got, err, verdictSame)
	}
	if got, err := judge(setup, base, []float64{0.016, 0.016, 0.016}); err != nil || got != verdictWorse {
		t.Errorf("6 ms slower set-up: %q, %v; want %q", got, err, verdictWorse)
	}
	// The floor applies to setup_s only.
	other := setup
	other.Name = "job_p50_ms"
	if got, _ := judge(other, base, []float64{0.014, 0.014, 0.014}); got != verdictWorse {
		t.Errorf("floor leaked to %s: %q", other.Name, got)
	}
}

func TestJudgeRejectsUnusableValues(t *testing.T) {
	good := []float64{1, 1, 1}
	for name, bad := range map[string][]float64{
		"missing": nil,
		"zero":    {1, 0, 1},
		"NaN":     {1, math.NaN(), 1},
		"Inf":     {1, math.Inf(1), 1},
	} {
		if _, err := judge(higherPPS, good, bad); err == nil {
			t.Errorf("%s new values accepted", name)
		}
		if _, err := judge(higherPPS, bad, good); err == nil {
			t.Errorf("%s base values accepted", name)
		}
	}
}

func TestJudgeFailedIsAbsoluteZero(t *testing.T) {
	clean := []*result{{Attempted: 10}, {Attempted: 12}}
	if got, err := judgeFailed(clean); err != nil || got != verdictSame {
		t.Errorf("no failures: %q, %v", got, err)
	}
	one := []*result{{Attempted: 10000}, {Attempted: 10000, Failed: 1}}
	if got, err := judgeFailed(one); err != nil || got != verdictWorse {
		t.Errorf("one failure in 20000: %q, %v; want %q", got, err, verdictWorse)
	}
	if _, err := judgeFailed([]*result{{}}); err == nil {
		t.Error("a run that attempted nothing was accepted")
	}
}

func sampleResult(pps float64) *result {
	r := newResult()
	r.Attempted, r.Digest = 100, "d1"
	r.Metrics = map[string]float64{"setup_s": 0.02, "points_per_s": pps, "job_p50_ms": 10, "peak_rss_mb": 300}
	r.note("a note")
	return r
}

func TestReportRoundTrip(t *testing.T) {
	rep := &report{Seed: 7, Seconds: 2.5, Runs: []map[string]*result{
		{"served": sampleResult(1000)},
		{"served": sampleResult(1010)},
	}}
	rep.Runs[1]["served"].Layers = map[string]float64{"engine.hit_ratio": 0.25}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	runs, err := readRuns([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	rep.Runs[0]["served"].Layers = nil // omitted when empty
	if !reflect.DeepEqual(runs, rep.Runs) {
		t.Errorf("round trip changed the runs:\n got %+v\nwant %+v", runs[1]["served"], rep.Runs[1]["served"])
	}
}

// TestCompareCommand drives -compare end to end: a throughput drop past
// the bound fails it, a run within the bound passes.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"served"}],"end_to_end":[
		{"name":"points_per_s","unit":"points/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, pps ...float64) string {
		rep := &report{}
		for _, v := range pps {
			rep.Runs = append(rep.Runs, map[string]*result{"served": sampleResult(v)})
		}
		p := filepath.Join(dir, name)
		if err := writeReport(p, rep); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", 1000, 1010, 990)
	for _, c := range []struct {
		name string
		pps  []float64
		code int
	}{
		{"same", []float64{995, 1005, 1000}, 0},
		{"slower", []float64{800, 810, 790}, 1},
	} {
		var out, errs bytes.Buffer
		newSide := write(c.name+".json", c.pps[:2]...) + "," + write(c.name+"-2.json", c.pps[2:]...)
		code := run([]string{"-benchmark", bench, "-compare", base, newSide}, &out, &errs)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errs.String())
		}
		if !strings.Contains(out.String(), "output_digest: identical on every run") {
			t.Errorf("%s: digest summary missing:\n%s", c.name, out.String())
		}
	}

	// One run without the metric is a hard failure, not a smaller sample.
	gap := sampleResult(1000)
	delete(gap.Metrics, "points_per_s")
	rep := &report{Runs: []map[string]*result{{"served": sampleResult(1000)}, {"served": gap}}}
	missing := filepath.Join(dir, "missing.json")
	if err := writeReport(missing, rep); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-benchmark", bench, "-compare", base, missing}, &out, &errs); code != 1 || !strings.Contains(errs.String(), "has no value") {
		t.Errorf("missing value: exit %d, stderr %q", code, errs.String())
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload lists the program prints in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	strip := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
			}
			m.Bound = 0
			out[i] = m
		}
		return out
	}
	if got := strip(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, endToEnd)
	}
	if got := strip(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, perLayer)
	}
}
