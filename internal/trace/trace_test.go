package trace

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"suit/internal/isa"
)

func mkTrace(t *testing.T, total uint64, idx ...uint64) *Trace {
	t.Helper()
	tr := &Trace{Name: "test", Total: total, IPC: 1}
	for _, i := range idx {
		tr.Events = append(tr.Events, Event{Index: i, Op: isa.OpAESENC})
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("mkTrace: %v", err)
	}
	return tr
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
		want error
	}{
		{"ok empty", Trace{Total: 10, IPC: 1}, nil},
		{"ok events", Trace{Total: 10, IPC: 2, Events: []Event{{1, isa.OpVOR}, {5, isa.OpAESENC}}}, nil},
		{"zero ipc", Trace{Total: 10}, ErrBadIPC},
		{"nan ipc", Trace{Total: 10, IPC: math.NaN()}, ErrBadIPC},
		{"inf ipc", Trace{Total: 10, IPC: math.Inf(1)}, ErrBadIPC},
		{"unsorted", Trace{Total: 10, IPC: 1, Events: []Event{{5, isa.OpVOR}, {1, isa.OpVOR}}}, ErrUnsorted},
		{"duplicate", Trace{Total: 10, IPC: 1, Events: []Event{{5, isa.OpVOR}, {5, isa.OpVOR}}}, ErrDuplicate},
		{"out of range", Trace{Total: 10, IPC: 1, Events: []Event{{10, isa.OpVOR}}}, ErrOutOfRange},
		{"nop opcode", Trace{Total: 10, IPC: 1, Events: []Event{{1, isa.OpNop}}}, ErrBadOpcode},
		{"invalid opcode", Trace{Total: 10, IPC: 1, Events: []Event{{1, isa.Opcode(999)}}}, ErrBadOpcode},
	}
	for _, c := range cases {
		err := c.tr.Validate()
		if c.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.want != nil && !errorsIs(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestGapsSumInvariant(t *testing.T) {
	tr := mkTrace(t, 100, 0, 10, 11, 99)
	gaps := tr.Gaps()
	if len(gaps) != len(tr.Events)+1 {
		t.Fatalf("got %d gaps, want %d", len(gaps), len(tr.Events)+1)
	}
	var sum uint64
	for _, g := range gaps {
		sum += g
	}
	want := tr.Total - uint64(len(tr.Events))
	if sum != want {
		t.Errorf("gap sum = %d, want %d", sum, want)
	}
	wantGaps := []uint64{0, 9, 0, 87, 0}
	if !reflect.DeepEqual(gaps, wantGaps) {
		t.Errorf("gaps = %v, want %v", gaps, wantGaps)
	}
}

func TestGapHistogram(t *testing.T) {
	tr := mkTrace(t, 2000, 0, 5, 105, 1105)
	// Gaps: 0, 4, 99, 999, 894 → buckets 0,0,1,2,2.
	hist := tr.GapHistogram()
	want := []uint64{2, 1, 2}
	if !reflect.DeepEqual(hist, want) {
		t.Errorf("hist = %v, want %v", hist, want)
	}
}

func TestDensity(t *testing.T) {
	tr := &Trace{Total: 1000, IPC: 2, Events: []Event{{1, isa.OpVOR}, {2, isa.OpVXOR}}}
	if got := tr.Density(); got != 0.002 {
		t.Errorf("Density = %v, want 0.002", got)
	}
	empty := &Trace{IPC: 1}
	if empty.Density() != 0 {
		t.Error("empty trace density must be 0")
	}
}

func TestFilterFamilies(t *testing.T) {
	tr := &Trace{Total: 100, IPC: 1, Events: []Event{
		{1, isa.OpIMUL}, {2, isa.OpAESENC}, {3, isa.OpVOR}, {4, isa.OpVPADDQ},
	}}
	ns := tr.WithoutSIMD()
	// AESENC, VOR, VPADDQ are SIMD → only IMUL survives.
	if len(ns.Events) != 1 || ns.Events[0].Op != isa.OpIMUL {
		t.Errorf("WithoutSIMD = %v, want only IMUL", ns.Events)
	}
	if ns.Total != tr.Total || ns.IPC != tr.IPC {
		t.Error("Filter must preserve Total and IPC")
	}
}

func TestSummarize(t *testing.T) {
	tr := mkTrace(t, 1000, 100, 200)
	s := Summarize(tr)
	if s.Events != 2 || s.Total != 1000 {
		t.Errorf("Stats events/total = %d/%d", s.Events, s.Total)
	}
	// Gaps: 100, 99, 799.
	if s.MaxGap != 799 {
		t.Errorf("MaxGap = %d, want 799", s.MaxGap)
	}
	if s.MedianGap != 100 {
		t.Errorf("MedianGap = %d, want 100", s.MedianGap)
	}
	wantMean := float64(100+99+799) / 3
	if math.Abs(s.MeanGap-wantMean) > 1e-9 {
		t.Errorf("MeanGap = %v, want %v", s.MeanGap, wantMean)
	}
	if s.ByOpcode[isa.OpAESENC] != 2 {
		t.Errorf("ByOpcode[AESENC] = %d, want 2", s.ByOpcode[isa.OpAESENC])
	}
}

func TestGapsPropertySumAlwaysMatches(t *testing.T) {
	prop := func(raw []uint32, totalExtra uint16) bool {
		idx := make([]uint64, 0, len(raw))
		seen := map[uint64]bool{}
		for _, r := range raw {
			v := uint64(r % 10000)
			if !seen[v] {
				seen[v] = true
				idx = append(idx, v)
			}
		}
		sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
		total := 10000 + uint64(totalExtra)
		tr := &Trace{Total: total, IPC: 1}
		for _, i := range idx {
			tr.Events = append(tr.Events, Event{Index: i, Op: isa.OpVOR})
		}
		if tr.Validate() != nil {
			return false
		}
		var sum uint64
		for _, g := range tr.Gaps() {
			sum += g
		}
		return sum == total-uint64(len(idx))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
