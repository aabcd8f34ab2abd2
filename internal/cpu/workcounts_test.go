package cpu

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"suit/internal/trace"
	"suit/internal/units"
	"suit/internal/workload"
)

var updateWorkCounts = flag.Bool("update", false, "rewrite testdata/workcounts.json from the current simulator")

// workCountsPath is the golden of TestWorkCounts.
var workCountsPath = filepath.Join("testdata", "workcounts.json")

// workCount is the work one machine did: the events each of its traces
// carries, the event-loop steps, the arrivals fastForward took inline,
// and the streaks it began while the voltage was still ramping.
type workCount struct {
	Name        string `json:"name"`
	TraceEvents []int  `json:"trace_events"`
	Steps       int    `json:"steps"`
	FFArrivals  int    `json:"ff_arrivals"`
	RampStreaks int    `json:"ff_ramp_streaks"`
}

// workCountCorpus runs chips 𝒜/ℬ/𝒞 × {pinned baseline, fvLite} ×
// {VLC, nginx, 557.xz} × {1, 4} cores at 2·10⁶ instructions, then the
// benchmark's hot-path shapes under fvLite.
func workCountCorpus(t *testing.T) []workCount {
	t.Helper()
	fv := fvLite{deadline: units.Microseconds(30)}
	var out []workCount
	count := func(name string, s Strategy, cfg Config) {
		m, err := New(cfg, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := workCount{Name: name, Steps: m.stepCount, FFArrivals: m.ff.arrivals, RampStreaks: m.ff.rampStreaks}
		for _, tr := range cfg.Traces {
			w.TraceEvents = append(w.TraceEvents, len(tr.Events))
		}
		out = append(out, w)
	}
	for _, name := range []string{"VLC", "nginx", "557.xz"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		traces := make([]*trace.Trace, 4)
		for i := range traces {
			tr, err := b.GenerateTrace(2_000_000, 11+uint64(i)*7919)
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = tr
		}
		for ci, chip := range ffChips {
			for _, s := range []struct {
				name string
				s    Strategy
			}{{"base", pinnedBase{}}, {"fvLite", fv}} {
				for _, cores := range []int{1, 4} {
					cfg := testConfig(traces[:cores]...)
					cfg.Chip = chip()
					count(fmt.Sprintf("%c/%s/%s/%d", 'A'+ci, s.name, name, cores), s.s, cfg)
				}
			}
		}
	}
	for _, sh := range hotPathShapes() {
		count("hot/"+sh.name, fv, testConfig(sh.traces...))
	}
	return out
}

// TestWorkCounts pins, exactly, the work every machine of the corpus
// does. A change that keeps every output but does more work, such as
// a fast-forward loop that declines arrivals it used to take, moves a
// count here. Regenerate, for a deliberate change in how the machine
// steps, with:
//
//	go test ./internal/cpu -run TestWorkCounts -update
func TestWorkCounts(t *testing.T) {
	got := workCountCorpus(t)
	if *updateWorkCounts {
		// One machine per line keeps the golden's diffs readable.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, w := range got {
			line, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				buf.WriteString(",\n")
			}
			buf.Write(line)
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile(workCountsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(workCountsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []workCount
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d machines, golden %d", len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("work moved:\n got  %+v\n want %+v", g, w)
		}
	}
}
