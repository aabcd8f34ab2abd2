package cpu

import (
	"reflect"
	"testing"

	"suit/internal/isa"
	"suit/internal/trace"
	"suit/internal/units"
)

// hotPathTrace builds a trace with a faultable event every gap
// instructions. The n-th event carries the n-th opcode of the faultable
// set, cyclically, so the trace depends on the arguments alone.
func hotPathTrace(total, gap uint64) *trace.Trace {
	ops := isa.Faultable()
	tr := &trace.Trace{Name: "hot", Total: total, IPC: 2}
	for idx := gap; idx < total; idx += gap {
		tr.Events = append(tr.Events, trace.Event{Index: idx, Op: ops[len(tr.Events)%len(ops)]})
	}
	return tr
}

// TestHotPathTraceDeterministic: the golden and the allocation test
// build their traces with hotPathTrace, so a call must not depend on
// which calls came before it.
func TestHotPathTraceDeterministic(t *testing.T) {
	a, b := hotPathTrace(20_000, 700), hotPathTrace(20_000, 700)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two calls differ: first ops %v…, second %v…", a.Events[0].Op, b.Events[0].Op)
	}
}

// denseTrapTraces is one core with a faultable event every 200
// instructions: under fvLite nearly every burst re-traps.
func denseTrapTraces(total uint64) []*trace.Trace {
	return []*trace.Trace{hotPathTrace(total, 200)}
}

// multiCoreTraces is four cores at coprime-ish event gaps, so their
// arrivals interleave in the event queue.
func multiCoreTraces(total uint64) []*trace.Trace {
	return []*trace.Trace{
		hotPathTrace(total, 400),
		hotPathTrace(total, 700),
		hotPathTrace(total, 1100),
		hotPathTrace(total, 1700),
	}
}

// hotPathShape is one machine shape of the step-loop benchmark, which the
// work-count golden pins too.
type hotPathShape struct {
	name   string
	traces []*trace.Trace
}

// hotPathShapes are dense traps on one core, sparse traps on one core
// (per-trap set-up dominates), four interleaved cores (every arrival goes
// through the event queue) and a long 10,000-trap stream (the event loop's
// own throughput, which sets how long Table 6 regeneration takes).
func hotPathShapes() []hotPathShape {
	return []hotPathShape{
		{"dense-trap", denseTrapTraces(2_000_000)},
		{"sparse-trap", []*trace.Trace{hotPathTrace(20_000_000, 500_000)}},
		{"multi-core", multiCoreTraces(2_000_000)},
		{"event-loop", []*trace.Trace{hotPathTrace(10_001*500_000, 500_000)}},
	}
}

// BenchmarkMachine measures the production path: every iteration builds
// a fresh machine with New over traces shared by all iterations and runs
// it once, as core.Run does per sweep point. Allocations are reported but
// not gated, since New allocates; TestStepLoopAllocations holds the step
// loop alone.
func BenchmarkMachine(b *testing.B) {
	for _, sh := range hotPathShapes() {
		b.Run(sh.name, func(b *testing.B) {
			cfg := testConfig(sh.traces...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := New(cfg, fvLite{deadline: units.Microseconds(30)})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Exceptions == 0 {
					b.Fatal("no traps simulated")
				}
				b.ReportMetric(float64(res.Exceptions), "traps")
			}
		})
	}
}
