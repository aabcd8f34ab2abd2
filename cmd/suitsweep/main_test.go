package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/engine"
	"suit/internal/strategy"
	"suit/internal/units"
)

func TestChipByName(t *testing.T) {
	for _, name := range []string{"A", "a", "B", "c"} {
		if _, err := chipByName(name); err != nil {
			t.Errorf("chip %q rejected: %v", name, err)
		}
	}
	_, err := chipByName("Z")
	if err == nil {
		t.Fatal("unknown chip accepted")
	}
	if !strings.Contains(err.Error(), `"Z"`) || !strings.Contains(err.Error(), "A, B, C") {
		t.Errorf("unknown-chip error should name the value and the known set: %v", err)
	}
}

func TestSweepGridShape(t *testing.T) {
	fast := sweepGrid(dvfs.XeonSilver4208())
	slow := sweepGrid(dvfs.AMDRyzen7700X())
	if len(fast) != 240 || len(slow) != 240 {
		t.Fatalf("grid sizes %d/%d, want 240 (5 deadlines × 3 spans × 4 counts × 4 factors)", len(fast), len(slow))
	}
	// CPU ℬ's slow frequency switching must push the grid to longer
	// deadlines.
	if slow[0].Deadline <= fast[len(fast)-1].Deadline {
		t.Errorf("ℬ grid deadline %v not beyond the fast grid's %v", slow[0].Deadline, fast[len(fast)-1].Deadline)
	}
	for _, p := range fast {
		if err := p.Validate(); err != nil {
			t.Fatalf("grid point invalid: %v", err)
		}
	}
}

// coldVariantEnv names the worker count a re-executed test binary runs
// one cold variant of TestSweepDeterministicAcrossWorkers at, and
// coldCacheEnv the cache directory it writes, if any.
const (
	coldVariantEnv = "SUITSWEEP_TEST_COLD_WORKERS"
	coldCacheEnv   = "SUITSWEEP_TEST_COLD_CACHE"
	coldPrefix     = "cold-sweep: "
)

// TestSweepDeterministicAcrossWorkers runs a miniature sweep at -j 1 and
// -j 8, cold and warm (reusing the on-disk result cache), and demands
// identical ranked results across all four combinations — the acceptance
// contract of the parallel engine, and the machine-level oracle that the
// indexed event queue preserved the linear scan's event order. Each cold
// variant runs in a process of its own, so it is cold in the artifact
// store too: its grid points share recordings and baselines only with
// each other.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	chip := dvfs.XeonSilver4208()
	grid := sweepGrid(chip)[:3]
	benches, err := sweepBenches()
	if err != nil {
		t.Fatal(err)
	}
	benches = benches[:2]
	miniSweep := func(opts engine.Options) string {
		t.Helper()
		core.SetEngineOptions(opts)
		points, err := sweep(chip, grid, benches, true, 2_000_000)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		return fmt.Sprintf("%+v", points) // %v spells floats exactly
	}
	if w := os.Getenv(coldVariantEnv); w != "" {
		workers, err := strconv.Atoi(w)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Println(coldPrefix + miniSweep(engine.Options{Workers: workers, BaseSeed: 1, CacheDir: os.Getenv(coldCacheEnv)}))
		return
	}

	cacheDir := t.TempDir()
	cold := func(workers int, cache string) string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestSweepDeterministicAcrossWorkers$")
		cmd.Env = append(os.Environ(), coldVariantEnv+"="+strconv.Itoa(workers), coldCacheEnv+"="+cache)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("cold -j %d: %v\n%s", workers, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if r, ok := strings.CutPrefix(line, coldPrefix); ok {
				return r
			}
		}
		t.Fatalf("cold -j %d printed no result:\n%s", workers, out)
		return ""
	}
	variants := []struct {
		name   string
		result string
	}{
		// One cold run also writes the cache so the warm runs hit it.
		{"j1-cold", cold(1, cacheDir)},
		{"j8-cold", cold(8, "")},
		// Warm runs read every point back from the cache the cold run
		// populated; a decode/encode asymmetry would diverge here.
		{"j1-warm", miniSweep(engine.Options{Workers: 1, BaseSeed: 1, CacheDir: cacheDir})},
		{"j8-warm", miniSweep(engine.Options{Workers: 8, BaseSeed: 1, CacheDir: cacheDir})},
	}
	core.SetEngineOptions(engine.Options{}) // restore defaults for other tests
	for _, v := range variants[1:] {
		if v.result != variants[0].result {
			t.Fatalf("sweep diverged between %s and %s:\n%s\n%s",
				variants[0].name, v.name, variants[0].result, v.result)
		}
	}

	// Seeds derive from the recording key, through the engine: every
	// grid point of one workload replays one recording, and the two
	// workloads replay two.
	scs := sweepScenarios(chip, grid, benches, true, 2_000_000)
	seedOf := engine.New(core.Scenario.Fingerprint,
		func(_ context.Context, _ core.Scenario, seed uint64) (uint64, error) { return seed, nil },
		engine.Options{Workers: 1, BaseSeed: 1})
	seeds, err := seedOf.Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		if j := i % len(benches); seeds[i] != seeds[j] {
			t.Errorf("%s at grid point %d got seed %d, at grid point 0 %d", sc.Bench.Name, i/len(benches), seeds[i], seeds[j])
		}
	}
	if seeds[0] == seeds[1] {
		t.Errorf("%s and %s derived one seed", benches[0].Name, benches[1].Name)
	}
}

// TestTable7DeadlinePrediction is the paper check on the sweep itself:
// on chip 𝒞 at −97 mV and 5·10⁷ instructions, the top-ranked setting
// has Table 7's p_dl of 30 µs at each of the fixed base seeds 1, 2 and
// 3. With one recording per workload the ranking compares settings on
// common random numbers, so its top row is a prediction, not noise.
func TestTable7DeadlinePrediction(t *testing.T) {
	chip := dvfs.XeonSilver4208()
	benches, err := sweepBenches()
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetEngineOptions(engine.Options{})
	for _, seed := range []uint64{1, 2, 3} {
		core.SetEngineOptions(engine.Options{BaseSeed: seed})
		points, err := sweep(chip, sweepGrid(chip), benches, true, 50_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := points[0].p.Deadline, units.Microseconds(30); got != want {
			t.Errorf("seed %d: top-ranked setting %+v (mean efficiency %+.4f), want p_dl %v (Table 7)",
				seed, points[0].p, points[0].eff, want)
		}
	}
}

// TestSweepFailsOnAFailedPoint: a failing grid point fails the whole
// sweep — no ranking with a point missing — and the error names the
// failed scenario's fingerprint.
func TestSweepFailsOnAFailedPoint(t *testing.T) {
	chip := dvfs.XeonSilver4208()
	grid := sweepGrid(chip)[:3]
	grid[1] = strategy.Params{} // invalid: every scenario at this point fails
	benches, err := sweepBenches()
	if err != nil {
		t.Fatal(err)
	}
	benches = benches[:1]

	core.SetEngineOptions(engine.Options{Workers: 1, BaseSeed: 1})
	defer core.SetEngineOptions(engine.Options{})
	points, err := sweep(chip, grid, benches, true, 2_000_000)
	if err == nil {
		t.Fatalf("sweep with an invalid point returned %d points and no error", len(points))
	}
	bad := core.Scenario{Chip: chip, Bench: benches[0], Kind: core.KindFV,
		SpendAging: true, Instructions: 2_000_000, Params: &grid[1]}.Fingerprint()
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error does not name the failed point's fingerprint %q: %v", bad, err)
	}
}

// TestRunExitCodes drives run in-process: usage mistakes exit 1, a
// cancelled context exits 130 with the interrupted line and the partial
// stats, and a short sweep exits 0 with its table on stdout.
func TestRunExitCodes(t *testing.T) {
	defer core.SetEngineOptions(engine.Options{}) // restore defaults for other tests
	defer core.SetRunContext(nil)
	usage := []struct {
		args []string
		msg  string
	}{
		{[]string{"-not-a-flag"}, "flag provided but not defined: -not-a-flag"},
		{[]string{"-chip", "Z"}, `"Z"`},
		{[]string{"-top", "0"}, "bad -top 0"},
	}
	for _, tc := range usage {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != exitUsage {
			t.Errorf("run(%q) = %d, want usage exit %d", tc.args, code, exitUsage)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("run(%q) stderr %q lacks %q", tc.args, stderr.String(), tc.msg)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-instr", "1e6"}, &stdout, &stderr); code != exitSignal {
		t.Errorf("cancelled run = %d, want %d", code, exitSignal)
	}
	for _, want := range []string{"suitsweep: interrupted — nothing was kept", "suitsweep: partial stats: "} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("cancelled run's stderr %q lacks %q", stderr.String(), want)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-instr", "1e6", "-top", "1"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("run = %d, want %d; stderr:\n%s", code, exitOK, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Top 1 parameter settings") {
		t.Errorf("stdout lacks the ranked table:\n%s", stdout.String())
	}
}
