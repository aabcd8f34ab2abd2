package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
		"security", "delays", "aging", "covert", "baselines", "sched", "variance",
	} {
		if !seen[id] {
			t.Errorf("experiment %q missing from the registry", id)
		}
	}
}

func TestCheapExperimentsRun(t *testing.T) {
	// The non-simulation experiments must run clean end to end.
	c := cfg{quick: true, seed: 1, specInstr: 50_000_000, netInstr: 20_000_000}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, id := range []string{"table1", "delays", "table2", "fig12", "fig13", "table3", "aging", "table4", "table5", "fig8", "fig9", "fig10", "fig11"} {
		for _, e := range experiments {
			if e.id != id {
				continue
			}
			if err := e.run(c, devnull); err != nil {
				t.Errorf("%s: %v", id, err)
			}
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
	path := filepath.Join(t.TempDir(), "table5.txt")
	for i := 0; i < 20; i++ {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := runTable5(cfg{}, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "FU" {
				got = append(got, "FU "+f[1])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("render %d: FU rows %q, want %q", i, got, want)
		}
	}
}
