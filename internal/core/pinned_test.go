package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"suit/internal/cpu"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned.json from the current simulator")

// pinnedPath is the golden of TestPinnedTimesAndCounts.
var pinnedPath = filepath.Join("testdata", "pinned.json")

// pinnedResult is one machine's result as the golden records it: every
// simulated time as float64 bits (hex), every count as a value, and the
// energy figures as plain floats (they are compared with a tolerance).
type pinnedResult struct {
	Duration       string    `json:"duration_bits"`
	PerCore        []string  `json:"per_core_bits"`
	Residency      [4]string `json:"residency_bits"`
	EfficientShare string    `json:"efficient_share_bits"`
	Exceptions     int       `json:"exceptions"`
	Emulated       int       `json:"emulated"`
	Switches       int       `json:"switches"`
	DeadlineFires  int       `json:"deadline_fires"`
	RAPLCounter    uint32    `json:"rapl_counter"`
	Energy         float64   `json:"energy_j"`
	AvgPower       float64   `json:"avg_power_w"`
	Faults         int       `json:"faults"`
}

// pinnedCell is one scenario of the corpus with both of its machines.
type pinnedCell struct {
	Name           string       `json:"name"`
	EfficientShare string       `json:"efficient_share_bits"`
	Base           pinnedResult `json:"base"`
	Run            pinnedResult `json:"run"`
}

func bitsOf(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func pin(r cpu.Result) pinnedResult {
	p := pinnedResult{
		Duration:       bitsOf(float64(r.Duration)),
		EfficientShare: bitsOf(r.EfficientShare()),
		Exceptions:     r.Exceptions,
		Emulated:       r.Emulated,
		Switches:       r.Switches,
		DeadlineFires:  r.DeadlineFires,
		RAPLCounter:    r.RAPLCounter,
		Energy:         float64(r.Energy),
		AvgPower:       float64(r.AvgPower),
		Faults:         len(r.Faults),
	}
	for _, t := range r.PerCore {
		p.PerCore = append(p.PerCore, bitsOf(float64(t)))
	}
	for i, t := range r.Residency {
		p.Residency[i] = bitsOf(float64(t))
	}
	return p
}

// pinnedCorpus runs chips A/B/C × fV/e/dyn × 1/4 cores × four workloads
// at 2·10⁶ instructions, skipping the combinations Run rejects (TEE
// workloads under emulation strategies, core counts a chip lacks).
func pinnedCorpus(t *testing.T) []pinnedCell {
	t.Helper()
	benches, err := BenchesByName([]string{"557.xz", "525.x264", "VLC", "nginx"})
	if err != nil {
		t.Fatal(err)
	}
	var cells []pinnedCell
	for _, letter := range []string{"A", "B", "C"} {
		chip, err := ChipByName(letter)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []StrategyKind{KindFV, KindEmul, KindDynamic} {
			for _, cores := range []int{1, 4} {
				for _, b := range benches {
					o, err := Run(Scenario{Chip: chip, Bench: b, Kind: kind, Cores: cores,
						SpendAging: true, Instructions: 2_000_000, Seed: 11})
					if err != nil {
						continue
					}
					cells = append(cells, pinnedCell{
						Name:           fmt.Sprintf("%s/%s/%d/%s", letter, kind, cores, b.Name),
						EfficientShare: bitsOf(o.EfficientShare),
						Base:           pin(o.Base),
						Run:            pin(o.Run),
					})
				}
			}
		}
	}
	return cells
}

// relClose reports |got−want| ≤ tol·|want|.
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// comparePinned holds the current result to the golden: every time and
// count bit-equal, energy and average power within 1e-7 relative, the
// RAPL counter within one tick, and no faults.
func comparePinned(t *testing.T, name string, got, want pinnedResult) {
	t.Helper()
	if got.Duration != want.Duration || got.EfficientShare != want.EfficientShare ||
		fmt.Sprint(got.PerCore) != fmt.Sprint(want.PerCore) || got.Residency != want.Residency {
		t.Errorf("%s: simulated time moved:\n got  dur=%s per-core=%v residency=%v eff=%s\n want dur=%s per-core=%v residency=%v eff=%s",
			name, got.Duration, got.PerCore, got.Residency, got.EfficientShare,
			want.Duration, want.PerCore, want.Residency, want.EfficientShare)
	}
	if got.Exceptions != want.Exceptions || got.Emulated != want.Emulated ||
		got.Switches != want.Switches || got.DeadlineFires != want.DeadlineFires {
		t.Errorf("%s: counts moved: got exc=%d emu=%d sw=%d dl=%d, want exc=%d emu=%d sw=%d dl=%d",
			name, got.Exceptions, got.Emulated, got.Switches, got.DeadlineFires,
			want.Exceptions, want.Emulated, want.Switches, want.DeadlineFires)
	}
	if !relClose(got.Energy, want.Energy, 1e-7) || !relClose(got.AvgPower, want.AvgPower, 1e-7) {
		t.Errorf("%s: energy %g J / %g W, golden %g J / %g W (tolerance 1e-7 relative)",
			name, got.Energy, got.AvgPower, want.Energy, want.AvgPower)
	}
	if d := int64(got.RAPLCounter) - int64(want.RAPLCounter); d < -1 || d > 1 {
		t.Errorf("%s: RAPL counter %d, golden %d (tolerance ±1 tick)", name, got.RAPLCounter, want.RAPLCounter)
	}
	if got.Faults != 0 {
		t.Errorf("%s: %d faults recorded", name, got.Faults)
	}
}

// TestPinnedTimesAndCounts holds the simulator to a golden captured
// before the energy accounting moved from per-segment Simpson sums to
// per-epoch closed forms: only the low bits of energy may differ from
// it. Any change that moves simulated time, a residency, a completion
// time or an event count fails here. Regenerate (only for a deliberate
// timing-model change) with:
//
//	go test ./internal/core -run TestPinnedTimesAndCounts -update
func TestPinnedTimesAndCounts(t *testing.T) {
	cells := pinnedCorpus(t)
	if *updatePinned {
		// One cell per line keeps the golden's diffs readable.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, c := range cells {
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				buf.WriteString(",\n")
			}
			buf.Write(line)
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile(pinnedPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(want) {
		t.Fatalf("corpus has %d cells, golden %d", len(cells), len(want))
	}
	for i, c := range cells {
		w := want[i]
		if c.Name != w.Name {
			t.Fatalf("cell %d is %s, golden %s", i, c.Name, w.Name)
		}
		if c.EfficientShare != w.EfficientShare {
			t.Errorf("%s: efficient share bits %s, golden %s", c.Name, c.EfficientShare, w.EfficientShare)
		}
		comparePinned(t, c.Name+" base", c.Base, w.Base)
		comparePinned(t, c.Name+" run", c.Run, w.Run)
	}
}
