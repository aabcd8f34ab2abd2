// Package trace models instruction-event streams as recorded by the paper's
// QEMU plugin (§5.1): for each workload, the stream of *interesting*
// instructions (the Table 1 faultable set plus IMUL) with the instruction
// index at which each executes, together with the total instruction count
// and an instructions-per-cycle estimate used to convert instruction counts
// into clock cycles (the paper uses the INSTRUCTIONS_RETIRED counter for
// this conversion).
//
// Traces are sparse: background instructions are represented only by the
// gaps between events, which is exactly the information SUIT's dynamic
// building block consumes (the gap-size distribution determines deadline
// behaviour, Figs 5-7).
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"suit/internal/isa"
)

// Event is one occurrence of an interesting instruction.
type Event struct {
	// Index is the zero-based position of the instruction in the
	// workload's dynamic instruction stream.
	Index uint64
	// Op is the instruction executed.
	Op isa.Opcode
}

// Trace is a recorded instruction stream.
type Trace struct {
	// Name identifies the workload, e.g. "557.xz" or "nginx".
	Name string
	// Total is the total number of dynamic instructions in the stream,
	// including all background instructions. Total must be greater than
	// the last event index.
	Total uint64
	// IPC is the measured instructions-per-cycle used to convert
	// instruction indices into clock cycles (§5.1).
	IPC float64
	// Events are the interesting instructions, sorted by Index.
	Events []Event
}

// Validation errors.
var (
	ErrUnsorted   = errors.New("trace: events not sorted by index")
	ErrOutOfRange = errors.New("trace: event index beyond total instruction count")
	ErrBadOpcode  = errors.New("trace: invalid opcode")
	ErrBadIPC     = errors.New("trace: IPC must be positive and finite")
	ErrDuplicate  = errors.New("trace: duplicate event index")
)

// Validate checks the structural invariants of the trace.
func (t *Trace) Validate() error {
	if !(t.IPC > 0) || math.IsInf(t.IPC, 0) || math.IsNaN(t.IPC) {
		return fmt.Errorf("%w: %v", ErrBadIPC, t.IPC)
	}
	for i, ev := range t.Events {
		if !isa.Valid(ev.Op) || ev.Op == isa.OpNop {
			return fmt.Errorf("%w: event %d op %d", ErrBadOpcode, i, ev.Op)
		}
		if ev.Index >= t.Total {
			return fmt.Errorf("%w: event %d index %d >= total %d", ErrOutOfRange, i, ev.Index, t.Total)
		}
		if i > 0 {
			switch prev := t.Events[i-1].Index; {
			case ev.Index < prev:
				return fmt.Errorf("%w: event %d index %d < %d", ErrUnsorted, i, ev.Index, prev)
			case ev.Index == prev:
				return fmt.Errorf("%w: index %d", ErrDuplicate, ev.Index)
			}
		}
	}
	return nil
}

// Density returns interesting events per instruction (0 when empty).
func (t *Trace) Density() float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(len(t.Events)) / float64(t.Total)
}

// CountByOpcode returns how many events each opcode contributes.
func (t *Trace) CountByOpcode() map[isa.Opcode]uint64 {
	m := make(map[isa.Opcode]uint64)
	for _, ev := range t.Events {
		m[ev.Op]++
	}
	return m
}

// Filter returns a new trace containing only events for which keep returns
// true. Total, IPC and Name are preserved.
func (t *Trace) Filter(keep func(Event) bool) *Trace {
	out := &Trace{Name: t.Name, Total: t.Total, IPC: t.IPC}
	for _, ev := range t.Events {
		if keep(ev) {
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// WithoutSIMD models recompiling the workload without SSE/AVX (§5.8): all
// SIMD events disappear from the stream. The instruction count change from
// scalarisation is modelled by internal/workload, not here.
func (t *Trace) WithoutSIMD() *Trace {
	return t.Filter(func(ev Event) bool { return !ev.Op.IsSIMD() })
}

// Gaps returns the instruction-count gaps of the stream: the gap before
// each event (distance from the previous event, or from stream start for
// the first event) and the tail gap after the last event. A trace with n
// events yields n+1 gaps summing to Total - n (each event occupies one
// instruction slot).
func (t *Trace) Gaps() []uint64 {
	gaps := make([]uint64, 0, len(t.Events)+1)
	var prevEnd uint64 // index just after the previous event
	for _, ev := range t.Events {
		gaps = append(gaps, ev.Index-prevEnd)
		prevEnd = ev.Index + 1
	}
	gaps = append(gaps, t.Total-prevEnd)
	return gaps
}

// GapHistogram buckets the gaps by order of magnitude: bucket i counts gaps
// g with 10^i <= g < 10^(i+1); bucket 0 also includes gaps of 0. This is
// the "gap size" axis of Figs 5 and 7.
func (t *Trace) GapHistogram() []uint64 {
	var hist []uint64
	for _, g := range t.Gaps() {
		b := 0
		if g > 0 {
			b = int(math.Log10(float64(g)))
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}

// Stats summarises a trace for reporting.
type Stats struct {
	Name        string
	Total       uint64
	Events      int
	Density     float64 // events per instruction
	MeanGap     float64 // mean instructions between events
	MedianGap   uint64
	MaxGap      uint64
	ByOpcode    map[isa.Opcode]uint64
	GapHistBase []uint64 // log10 histogram
}

// Summarize computes Stats for the trace.
func Summarize(t *Trace) Stats {
	gaps := t.Gaps()
	sorted := append([]uint64(nil), gaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum, max uint64
	for _, g := range gaps {
		sum += g
		if g > max {
			max = g
		}
	}
	return Stats{
		Name:        t.Name,
		Total:       t.Total,
		Events:      len(t.Events),
		Density:     t.Density(),
		MeanGap:     float64(sum) / float64(len(gaps)),
		MedianGap:   sorted[len(sorted)/2],
		MaxGap:      max,
		ByOpcode:    t.CountByOpcode(),
		GapHistBase: t.GapHistogram(),
	}
}
