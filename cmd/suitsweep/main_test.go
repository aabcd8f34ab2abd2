package main

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/engine"
	"suit/internal/strategy"
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

// TestSweepDeterministicAcrossWorkers runs a miniature sweep at -j 1 and
// -j 8, cold and warm (reusing the on-disk result cache), and demands
// identical ranked results across all four combinations — the acceptance
// contract of the parallel engine, and the machine-level oracle that the
// indexed event queue preserved the linear scan's event order.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	chip := dvfs.XeonSilver4208()
	grid := sweepGrid(chip)[:3]
	benches, err := sweepBenches()
	if err != nil {
		t.Fatal(err)
	}
	benches = benches[:2]

	type variant struct {
		name    string
		workers int
		warm    bool
	}
	variants := []variant{
		{"j1-cold", 1, false},
		{"j8-cold", 8, false},
		{"j1-warm", 1, true},
		{"j8-warm", 8, true},
	}
	cacheDir := t.TempDir()
	var runs [][]sweepPoint
	for _, v := range variants {
		opts := engine.Options{Workers: v.workers, BaseSeed: 1}
		if v.warm {
			// Warm runs read every point back from the cache the cold
			// runs populated; a decode/encode asymmetry would diverge here.
			opts.CacheDir = cacheDir
		} else if v.workers == 1 {
			// One cold run also writes the cache so the warm runs hit it.
			opts.CacheDir = cacheDir
		}
		core.SetEngineOptions(opts)
		points, err := sweep(chip, grid, benches, true, 2_000_000)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		runs = append(runs, points)
	}
	core.SetEngineOptions(engine.Options{}) // restore defaults for other tests
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[0], runs[i]) {
			t.Fatalf("sweep diverged between %s and %s:\n%+v\n%+v",
				variants[0].name, variants[i].name, runs[0], runs[i])
		}
	}
	// Seeds derive per point, so distinct grid points must not share one.
	k0 := core.Scenario{Chip: chip, Bench: benches[0], Kind: core.KindFV,
		SpendAging: true, Instructions: 2_000_000, Params: &grid[0]}.Fingerprint()
	k1 := core.Scenario{Chip: chip, Bench: benches[0], Kind: core.KindFV,
		SpendAging: true, Instructions: 2_000_000, Params: &grid[1]}.Fingerprint()
	if engine.DeriveSeed(1, k0) == engine.DeriveSeed(1, k1) {
		t.Error("distinct sweep points derived the same seed")
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
