package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"suit/internal/core"
	"suit/internal/engine"
	"suit/internal/isa"
	"suit/internal/report"
	"suit/internal/trace"
	"suit/internal/uarch"
	"suit/internal/workload"
)

func TestExperimentRegistryUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.id == "" || e.desc == "" || e.run == nil {
			t.Errorf("experiment %+v incomplete", e.id)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	// Every table and figure of the paper must be covered.
	for _, id := range []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig16",
		"security", "delays", "aging", "covert", "baselines", "sched", "variance", "ablations",
	} {
		if !seen[id] {
			t.Errorf("experiment %q missing from the registry", id)
		}
	}

	// Cell ids are unique, and every experiment returns cells except
	// those that reproduce no number the paper reports: a configuration
	// table, two trace views and the §7/§8 extensions.
	exempt := map[string]bool{"table5": true, "fig5": true, "fig7": true,
		"covert": true, "baselines": true, "sched": true, "variance": true}
	_, cells := quickRegistry(t)
	ids := map[string]bool{}
	perExp := map[string]int{}
	for _, c := range cells {
		if ids[c.id] {
			t.Errorf("duplicate cell id %q", c.id)
		}
		ids[c.id] = true
		perExp[strings.SplitN(c.id, " ", 2)[0]]++
	}
	for _, e := range experiments {
		switch n := perExp[e.id]; {
		case n == 0 && !exempt[e.id]:
			t.Errorf("experiment %s returns no paper cell", e.id)
		case n > 0 && exempt[e.id]:
			t.Errorf("experiment %s returns %d cells but is exempt", e.id, n)
		}
	}
}

var update = flag.Bool("update", false, "rewrite results_quick.txt from this run")

// quickRun is one run of the whole registry at -quick lengths, shared by
// the tests that need it.
var quickRun struct {
	once   sync.Once
	stdout string
	cells  []cell
	err    error
}

// quickRegistry runs every experiment as `suittables -quick` does and
// returns its stdout and cells.
func quickRegistry(t *testing.T) (string, []cell) {
	t.Helper()
	if testing.Short() {
		t.Skip("the quick registry simulates for about 15 s")
	}
	quickRun.once.Do(func() {
		core.SetEngineOptions(engine.Options{Workers: runtime.GOMAXPROCS(0), BaseSeed: 1})
		var stdout, stderr bytes.Buffer
		cells, failed, err := runExperiments(context.Background(), experiments, newCfg(true, 1), &stdout, &stderr, "")
		if err == nil && len(failed) > 0 {
			err = fmt.Errorf("experiments failed: %v\n%s", failed, stderr.String())
		}
		quickRun.stdout, quickRun.cells, quickRun.err = stdout.String(), cells, err
	})
	if quickRun.err != nil {
		t.Fatal(quickRun.err)
	}
	return quickRun.stdout, quickRun.cells
}

// TestPaperFidelity holds every paper cell to its band (or its recorded
// deviation's shape) and the whole -quick stdout to results_quick.txt.
// A deliberate change regenerates the golden with -update; one that
// moves a paper cell must also say why in the cell.
func TestPaperFidelity(t *testing.T) {
	stdout, cells := quickRegistry(t)
	for _, c := range cells {
		if f := c.fault(); f != "" {
			t.Errorf("%s: %s", c.id, f)
		}
	}
	golden := filepath.Join("..", "..", "results_quick.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := strings.Split(stdout, "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(exp) || got[i] != exp[i] {
			t.Fatalf("stdout departs from results_quick.txt at line %d: %q\n(regenerate with go test ./cmd/suittables -run TestPaperFidelity -update)", i+1, got[i])
		}
	}
	if len(exp) > len(got) {
		t.Fatalf("stdout ends at line %d of results_quick.txt's %d", len(got), len(exp))
	}
}

// TestExperimentsMDCarriesPaperTable requires EXPERIMENTS.md to quote
// the full run's paper-vs-measured table verbatim; CI checks
// results_full.txt itself against a fresh full run.
func TestExperimentsMDCarriesPaperTable(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(full), "Paper vs measured (")
	if i < 0 {
		t.Fatal("results_full.txt has no paper-vs-measured table")
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), string(full[i:])) {
		t.Error("EXPERIMENTS.md does not quote results_full.txt's paper-vs-measured table verbatim; paste it from there")
	}
}

// TestCheapExperimentsRun runs the non-simulation experiments end to
// end at shorter streams than -quick, so they must not depend on
// TestPaperFidelity's lengths to run clean.
func TestCheapExperimentsRun(t *testing.T) {
	c := cfg{quick: true, seed: 1, specInstr: 50_000_000, netInstr: 20_000_000}
	torun, err := selectExperiments("table1,delays,table2,fig12,fig13,table3,aging,table4,table5,fig8,fig9,fig10,fig11")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range torun {
		if _, err := e.run(c, io.Discard); err != nil {
			t.Errorf("%s: %v", e.id, err)
		}
	}
}

func TestDownsample(t *testing.T) {
	s := report.Series{Name: "x"}
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i))
	}
	ds := downsample(s, 10)
	if ds.Len() != 10 {
		t.Fatalf("downsampled to %d points", ds.Len())
	}
	if ds.X[0] != 0 {
		t.Errorf("first point %v", ds.X[0])
	}
	// Short series pass through untouched.
	short := report.Series{X: []float64{1}, Y: []float64{2}}
	if got := downsample(short, 10); got.Len() != 1 {
		t.Error("short series resampled")
	}
}

func TestDownsampleMaxKeepsSpikes(t *testing.T) {
	s := report.Series{Name: "spiky"}
	for i := 0; i < 100; i++ {
		y := 1.0
		if i == 57 {
			y = 99 // the spike must survive
		}
		s.Add(float64(i), y)
	}
	ds := downsampleMax(s, 10)
	if ds.Len() != 10 {
		t.Fatalf("downsampled to %d points", ds.Len())
	}
	found := false
	for i := range ds.Y {
		if ds.Y[i] == 99 {
			found = true
		}
	}
	if !found {
		t.Error("max-downsampling lost the spike")
	}
}

func TestTraceGapSeries(t *testing.T) {
	tr, err := workload.VLC().GenerateTrace(5_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := traceGapSeries(tr, "test")
	if s.Len() != len(tr.Events) {
		t.Fatalf("series has %d points for %d events", s.Len(), len(tr.Events))
	}
	for i, y := range s.Y {
		if y < 0 {
			t.Fatalf("negative log gap at %d", i)
		}
	}
	// Zero-gap events (back to back) produce 0, not -inf.
	var zeroTr trace.Trace
	zeroTr.Total = 10
	zeroTr.IPC = 1
	s2 := traceGapSeries(&zeroTr, "empty")
	if s2.Len() != 0 {
		t.Error("empty trace produced points")
	}
}

func TestTable6ConfigsMatchPaperRows(t *testing.T) {
	rows := table6Configs()
	if len(rows) != 6 {
		t.Fatalf("%d Table 6 rows, want 6", len(rows))
	}
	// 𝒜 appears with 1 and 4 cores; ℬ with f and e; 𝒞 with fV.
	if rows[0].cores != 1 || rows[1].cores != 4 {
		t.Error("𝒜 core counts wrong")
	}
	if rows[3].kind != "f" || rows[4].kind != "e" {
		t.Error("ℬ strategies wrong")
	}
	if rows[5].kind != "fV" {
		t.Error("𝒞 strategy wrong")
	}
}

func TestAllChips(t *testing.T) {
	chips := allChips()
	if len(chips) != 4 {
		t.Fatalf("%d chips, want 4", len(chips))
	}
	for _, c := range chips {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestTable5FURowsInKindOrder renders table5 repeatedly and requires the
// functional-unit rows in isa.FUKind order every time. Go randomises map
// iteration by a start offset only, so two renders of a map-ordered
// table agree about one run in eight; twenty renders do not.
func TestTable5FURowsInKindOrder(t *testing.T) {
	var want []string
	fus := uarch.DefaultConfig().FUs
	for k := isa.FUKind(0); int(k) < isa.NumFUKinds; k++ {
		if _, ok := fus[k]; ok {
			want = append(want, "FU "+k.String())
		}
	}
	for i := 0; i < 20; i++ {
		var out bytes.Buffer
		if _, err := runTable5(cfg{}, &out); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "FU" {
				got = append(got, "FU "+f[1])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("render %d: FU rows %q, want %q", i, got, want)
		}
	}
}
