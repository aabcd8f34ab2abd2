package strategy

import (
	"reflect"
	"testing"

	"suit/internal/cpu"
	"suit/internal/isa"
	"suit/internal/units"
)

// mockController records the calls a strategy makes, in order.
type mockController struct {
	calls      []string
	domains    int
	mode       cpu.Mode
	exceptions int
	deadline   units.Second
}

func (m *mockController) Now() units.Second { return 0 }
func (m *mockController) Domains() int      { return m.domains }
func (m *mockController) Mode(int) cpu.Mode { return m.mode }
func (m *mockController) RequestWait(d int, mo cpu.Mode) {
	m.calls = append(m.calls, "wait:"+mo.String())
}
func (m *mockController) RequestAsync(d int, mo cpu.Mode) {
	m.calls = append(m.calls, "async:"+mo.String())
}
func (m *mockController) DisableInstructions(int) { m.calls = append(m.calls, "disable") }
func (m *mockController) EnableInstructions(int)  { m.calls = append(m.calls, "enable") }
func (m *mockController) ArmDeadline(d int, dur units.Second) {
	if dur <= 0 {
		panic("mock: non-positive deadline") // mirrors the real controller
	}
	m.deadline = dur
	m.calls = append(m.calls, "arm")
}
func (m *mockController) ExceptionsWithin(int, units.Second) int { return m.exceptions }
func (m *mockController) Emulate(op isa.Opcode)                  { m.calls = append(m.calls, "emulate") }

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{ParamsAC(), ParamsB()} {
		if err := p.Validate(); err != nil {
			t.Errorf("default params rejected: %v", err)
		}
	}
	bad := []Params{
		{},
		{Deadline: 1, TimeSpan: 0, MaxExceptions: 1, DeadlineFactor: 1},
		{Deadline: 1, TimeSpan: 1, MaxExceptions: 0, DeadlineFactor: 1},
		{Deadline: 1, TimeSpan: 1, MaxExceptions: 1, DeadlineFactor: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestTable7Values(t *testing.T) {
	ac := ParamsAC()
	if ac.Deadline != units.Microseconds(30) || ac.TimeSpan != units.Microseconds(450) ||
		ac.MaxExceptions != 3 || ac.DeadlineFactor != 14 {
		t.Errorf("ParamsAC = %+v, want Table 7 row 𝒜&𝒞", ac)
	}
	b := ParamsB()
	if b.Deadline != units.Microseconds(700) || b.TimeSpan != units.Milliseconds(14) ||
		b.MaxExceptions != 4 || b.DeadlineFactor != 9 {
		t.Errorf("ParamsB = %+v, want Table 7 row ℬ", b)
	}
}

func TestFVHandlerFollowsListing1(t *testing.T) {
	// Listing 1 order: wait for Cf, async Cv, enable, arm.
	ctl := &mockController{domains: 1}
	FV{P: ParamsAC()}.OnDisabledOpcode(ctl, 0, 0, isa.OpAESENC)
	want := []string{"wait:Cf", "async:Cv", "enable", "arm"}
	if !reflect.DeepEqual(ctl.calls, want) {
		t.Errorf("calls = %v, want %v", ctl.calls, want)
	}
	if ctl.deadline != ParamsAC().Deadline {
		t.Errorf("deadline = %v, want p_dl", ctl.deadline)
	}
}

func TestFVDeadlineHandler(t *testing.T) {
	ctl := &mockController{domains: 1}
	FV{P: ParamsAC()}.OnDeadline(ctl, 0)
	want := []string{"disable", "async:E"}
	if !reflect.DeepEqual(ctl.calls, want) {
		t.Errorf("calls = %v, want %v", ctl.calls, want)
	}
}

func TestThrashingPreventionStretchesDeadline(t *testing.T) {
	p := ParamsAC()
	ctl := &mockController{domains: 1, exceptions: p.MaxExceptions}
	FV{P: p}.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR)
	want := units.Second(float64(p.Deadline) * p.DeadlineFactor)
	if ctl.deadline != want {
		t.Errorf("deadline = %v, want ×%v = %v", ctl.deadline, p.DeadlineFactor, want)
	}
	// Below the threshold: plain deadline.
	ctl2 := &mockController{domains: 1, exceptions: p.MaxExceptions - 1}
	FV{P: p}.OnDisabledOpcode(ctl2, 0, 0, isa.OpVOR)
	if ctl2.deadline != p.Deadline {
		t.Errorf("deadline = %v, want %v", ctl2.deadline, p.Deadline)
	}
}

func TestInitDisablesBeforeSelectingEfficient(t *testing.T) {
	for _, s := range []cpu.Strategy{
		FV{P: ParamsAC()}, FreqOnly{P: ParamsAC()}, VoltOnly{P: ParamsAC()},
		Emulation{}, Dynamic{P: ParamsAC()}, AlwaysEfficient{},
	} {
		ctl := &mockController{domains: 2}
		s.Init(ctl)
		want := []string{"disable", "async:E", "disable", "async:E"}
		if !reflect.DeepEqual(ctl.calls, want) {
			t.Errorf("%T Init calls = %v, want %v", s, ctl.calls, want)
		}
	}
}

func TestFreqOnlyNeverTouchesVoltage(t *testing.T) {
	ctl := &mockController{domains: 1}
	s := FreqOnly{P: ParamsAC()}
	s.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR)
	s.OnDeadline(ctl, 0)
	for _, c := range ctl.calls {
		if c == "wait:Cv" || c == "async:Cv" {
			t.Fatalf("frequency-only strategy requested Cv: %v", ctl.calls)
		}
	}
}

func TestVoltOnlyBlocksForVoltage(t *testing.T) {
	ctl := &mockController{domains: 1}
	VoltOnly{P: ParamsAC()}.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR)
	want := []string{"wait:Cv", "enable", "arm"}
	if !reflect.DeepEqual(ctl.calls, want) {
		t.Errorf("calls = %v, want %v", ctl.calls, want)
	}
}

func TestEmulationStrategy(t *testing.T) {
	ctl := &mockController{domains: 1}
	Emulation{}.OnDisabledOpcode(ctl, 0, 0, isa.OpAESENC)
	if !reflect.DeepEqual(ctl.calls, []string{"emulate"}) {
		t.Errorf("calls = %v", ctl.calls)
	}
	defer func() {
		if recover() == nil {
			t.Error("emulation OnDeadline did not panic")
		}
	}()
	Emulation{}.OnDeadline(ctl, 0)
}

func TestDynamicEmulatesIsolatedTraps(t *testing.T) {
	// One isolated trap on the efficient curve → emulate in place.
	ctl := &mockController{domains: 1, mode: cpu.ModeE, exceptions: 1}
	Dynamic{P: ParamsAC()}.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR)
	if !reflect.DeepEqual(ctl.calls, []string{"emulate"}) {
		t.Errorf("isolated trap calls = %v, want emulate", ctl.calls)
	}
	// Clustered traps → fall back to fV switching.
	ctl2 := &mockController{domains: 1, mode: cpu.ModeE, exceptions: 3}
	Dynamic{P: ParamsAC()}.OnDisabledOpcode(ctl2, 0, 0, isa.OpVOR)
	if len(ctl2.calls) == 0 || ctl2.calls[0] != "wait:Cf" {
		t.Errorf("clustered trap calls = %v, want fV sequence", ctl2.calls)
	}
	// Deadline delegates to fV.
	ctl3 := &mockController{domains: 1}
	Dynamic{P: ParamsAC()}.OnDeadline(ctl3, 0)
	if !reflect.DeepEqual(ctl3.calls, []string{"disable", "async:E"}) {
		t.Errorf("deadline calls = %v", ctl3.calls)
	}
}

func TestPinnedPanicsOnUnexpectedEvents(t *testing.T) {
	p := Pinned{M: cpu.ModeBase}
	ctl := &mockController{domains: 1}
	p.Init(ctl)
	if len(ctl.calls) != 0 {
		t.Errorf("pinned-base Init issued calls: %v", ctl.calls)
	}
	pe := Pinned{M: cpu.ModeE}
	ctl2 := &mockController{domains: 1}
	pe.Init(ctl2)
	if !reflect.DeepEqual(ctl2.calls, []string{"async:E"}) {
		t.Errorf("pinned-E Init calls = %v", ctl2.calls)
	}
	for name, fn := range map[string]func(){
		"OnDisabledOpcode": func() { p.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR) },
		"OnDeadline":       func() { p.OnDeadline(ctl, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pinned %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAlwaysEfficientPanicsOnTrap(t *testing.T) {
	ctl := &mockController{domains: 1}
	for name, fn := range map[string]func(){
		"OnDisabledOpcode": func() { AlwaysEfficient{}.OnDisabledOpcode(ctl, 0, 0, isa.OpVOR) },
		"OnDeadline":       func() { AlwaysEfficient{}.OnDeadline(ctl, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestArmPanicsOnNonPositiveDeadline(t *testing.T) {
	// Params.Validate would catch it, but arm must also refuse garbage.
	ctl := &mockController{domains: 1}
	defer func() { recover() }()
	Params{Deadline: -1, TimeSpan: 1, MaxExceptions: 1, DeadlineFactor: 1}.arm(ctl, 0)
	if ctl.deadline < 0 {
		t.Error("negative deadline armed")
	}
}
