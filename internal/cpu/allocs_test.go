package cpu

import (
	"runtime"
	"testing"

	"suit/internal/trace"
	"suit/internal/units"
)

// stepAllocs returns the allocations of the step loop alone, as core.Run
// drives it: machines are built with New and booted with runInit outside
// the measurement, and each call of the measured function runs one fresh
// machine's runStep loop to runDone.
func stepAllocs(t *testing.T, cfg Config, s Strategy) float64 {
	t.Helper()
	const runs = 2
	ms := make([]*Machine, runs+1) // AllocsPerRun adds one warm-up call
	for i := range ms {
		m, err := New(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		m.runInit()
		ms[i] = m
	}
	// Rings that machines run by earlier tests handed to excRings would
	// spare some measured runs their ring allocation (go test -count=2).
	// A GC moves a sync.Pool's contents to its victim cache, and the next
	// drops them.
	runtime.GC()
	runtime.GC()
	next := 0
	return testing.AllocsPerRun(runs, func() {
		m := ms[next]
		next++
		for !m.runDone {
			if err := m.runStep(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestStepLoopAllocations holds the step loop to a fixed number of
// allocations per run. A pinned baseline never allocates. A trapping
// machine allocates only while buffers first grow:
//   - the exception ring, once per domain on its first #DO;
//   - the deferred-action slice m.scheduled and its heap index
//     m.eq.spos, up to the deepest backlog of handler effects;
//   - the heap m.eq.nodes, once past the slots live at boot.
//
// Dense-trap fvLite's 5 are one ring, three scheduled/spos growths and
// one heap growth; emulAll's 1 is its ring; four-core fvLite's 12 are
// four rings, seven scheduled/spos growths and one heap growth. A count
// that grows with the run (a per-trap or per-arrival allocation) differs
// between 2·10⁶ and 2·10⁷ instructions and fails, and so does one above
// the ceiling.
func TestStepLoopAllocations(t *testing.T) {
	fv := fvLite{deadline: units.Microseconds(30)}
	cases := []struct {
		name   string
		traces func(total uint64) []*trace.Trace
		s      Strategy
		max    float64
	}{
		{"pinned-base", denseTrapTraces, pinnedBase{}, 0},
		{"dense-trap/fvLite", denseTrapTraces, fv, 5},
		{"dense-trap/emulAll", denseTrapTraces, emulAll{}, 1},
		{"multi-core/fvLite", multiCoreTraces, fv, 12},
	}
	for _, tc := range cases {
		short := stepAllocs(t, testConfig(tc.traces(2_000_000)...), tc.s)
		long := stepAllocs(t, testConfig(tc.traces(20_000_000)...), tc.s)
		t.Logf("%s: %v allocs at 2e6, %v at 2e7", tc.name, short, long)
		if short != long {
			t.Errorf("%s: %v allocs at 2·10⁶ instructions, %v at 2·10⁷: the step loop allocates per event", tc.name, short, long)
		}
		if long > tc.max {
			t.Errorf("%s: %v allocs per run, ceiling %v", tc.name, long, tc.max)
		}
	}
}
