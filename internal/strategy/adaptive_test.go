package strategy

import (
	"testing"

	"suit/internal/cpu"
	"suit/internal/isa"
	"suit/internal/units"
)

// timedController extends the mock with a controllable clock.
type timedController struct {
	mockController
	now units.Second
}

func (m *timedController) Now() units.Second { return m.now }

// TestAdaptiveDefaults: a zero Adaptive is ready to use; Init sizes its
// per-domain state.
func TestAdaptiveDefaults(t *testing.T) {
	a := &Adaptive{}
	ctl := &timedController{mockController: mockController{domains: 2}}
	a.Init(&ctl.mockController)
	if len(a.ewmaGap) != 2 || len(a.lastException) != 2 {
		t.Error("per-domain state not sized")
	}
}

func TestAdaptiveLearnsGaps(t *testing.T) {
	a := &Adaptive{}
	ctl := &timedController{mockController: mockController{domains: 1}}
	a.Init(&ctl.mockController)

	// First exception: no gap yet → the 10 µs lower clamp.
	ctl.now = units.Milliseconds(1)
	a.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR)
	if want := units.Microseconds(10); ctl.deadline != want {
		t.Errorf("first deadline = %v, want the lower clamp %v", ctl.deadline, want)
	}

	// Exceptions 100 µs apart: the deadline converges toward
	// 0.5 × 100 µs = 50 µs.
	for i := 2; i <= 30; i++ {
		ctl.now = units.Milliseconds(1) + units.Microseconds(float64(i-1)*100)
		a.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR)
	}
	got := ctl.deadline.Microseconds()
	if got < 40 || got > 60 {
		t.Errorf("converged deadline = %v µs, want ≈50", got)
	}

	// A sudden sparse phase (10 ms gaps) stretches the estimate but the
	// clamp holds it at 2 ms.
	for i := 0; i < 40; i++ {
		ctl.now += units.Milliseconds(10)
		a.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR)
	}
	if want := units.Milliseconds(2); ctl.deadline != want {
		t.Errorf("sparse-phase deadline = %v, want clamp at %v", ctl.deadline, want)
	}
}

func TestAdaptiveHandlerSequence(t *testing.T) {
	a := &Adaptive{}
	ctl := &timedController{mockController: mockController{domains: 1}}
	a.Init(&ctl.mockController)
	ctl.calls = nil
	a.OnDisabledOpcode(ctl, 0, 0, isa.OpAESENC)
	want := []string{"wait:Cf", "async:Cv", "enable", "arm"}
	for i, w := range want {
		if i >= len(ctl.calls) || ctl.calls[i] != w {
			t.Fatalf("calls = %v, want %v", ctl.calls, want)
		}
	}
	ctl.calls = nil
	a.OnDeadline(ctl, 0)
	if len(ctl.calls) != 2 || ctl.calls[0] != "disable" || ctl.calls[1] != "async:E" {
		t.Errorf("deadline calls = %v", ctl.calls)
	}
}

// Adaptive must satisfy cpu.Strategy as a pointer.
var _ cpu.Strategy = (*Adaptive)(nil)
