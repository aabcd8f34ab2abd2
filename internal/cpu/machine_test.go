package cpu

import (
	"math"
	"testing"

	"suit/internal/dvfs"
	"suit/internal/emul"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/trace"
	"suit/internal/units"
)

// testTrace builds a trace with faultable events at the given indices.
func testTrace(total uint64, ipc float64, idx ...uint64) *trace.Trace {
	tr := &trace.Trace{Name: "test", Total: total, IPC: ipc}
	for _, i := range idx {
		tr.Events = append(tr.Events, trace.Event{Index: i, Op: isa.OpAESENC})
	}
	return tr
}

func testConfig(tr ...*trace.Trace) Config {
	chip := dvfs.XeonSilver4208()
	gb := guardband.Default()
	return Config{
		Chip:           chip,
		Traces:         tr,
		Offset:         gb.EfficientOffset(isa.FaultableMask, true, true),
		Faults:         gb,
		HardenedIMUL:   true,
		ExceptionDelay: units.Microseconds(0.34),
		Emul:           emul.NewCostModel(units.Microseconds(0.77)),
		Seed:           1,
	}
}

// pinnedBase runs the trace on the conservative baseline.
func runWith(t *testing.T, cfg Config, s Strategy) Result {
	t.Helper()
	m, err := New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simple strategies for unit tests.

type pinnedBase struct{}

func (pinnedBase) Init(Controller)                                   {}
func (pinnedBase) OnDisabledOpcode(Controller, int, int, isa.Opcode) {}
func (pinnedBase) OnDeadline(Controller, int)                        {}

// fvLite is Listing 1 without thrashing prevention.
type fvLite struct {
	deadline units.Second
}

func (fvLite) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.DisableInstructions(d)
		ctl.RequestAsync(d, ModeE)
	}
}
func (s fvLite) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.RequestWait(domain, ModeCf)
	ctl.RequestAsync(domain, ModeCv)
	ctl.EnableInstructions(domain)
	ctl.ArmDeadline(domain, s.deadline)
}
func (s fvLite) OnDeadline(ctl Controller, domain int) {
	ctl.DisableInstructions(domain)
	ctl.RequestAsync(domain, ModeE)
}

type emulAll struct{}

func (emulAll) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.DisableInstructions(d)
		ctl.RequestAsync(d, ModeE)
	}
}
func (emulAll) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.Emulate(op)
}
func (emulAll) OnDeadline(Controller, int) { panic("no deadline") }

func TestConfigValidation(t *testing.T) {
	good := testConfig(testTrace(1000, 1, 10))
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Traces = nil },
		func(c *Config) { c.Traces = make([]*trace.Trace, 99) },
		func(c *Config) { c.Traces = []*trace.Trace{nil} },
		func(c *Config) { c.Traces = []*trace.Trace{testTrace(0, 0)} },
		func(c *Config) { c.Offset = units.MilliVolts(5) },
		func(c *Config) { c.Faults = nil },
		func(c *Config) { c.ExceptionDelay = -1 },
		func(c *Config) { c.IMULOverhead = []float64{1, 2, 3} },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil strategy accepted")
	}
}

func TestPointsOrdering(t *testing.T) {
	m, err := New(testConfig(testTrace(1000, 1, 10)), pinnedBase{})
	if err != nil {
		t.Fatal(err)
	}
	p := m.pts
	// The efficient point runs at least as fast as the baseline (TDP
	// headroom from undervolting) at a lower voltage than the
	// conservative curve would require.
	if p.E.F < p.Base.F {
		t.Errorf("E.F %v < Base.F %v", p.E.F, p.Base.F)
	}
	cons := dvfs.XeonSilver4208().Vendor
	if p.E.V >= cons.VoltageAt(p.E.F) {
		t.Errorf("E.V %v not below conservative %v", p.E.V, cons.VoltageAt(p.E.F))
	}
	// Cf: same voltage as E, lower frequency, safe on the vendor curve.
	if p.Cf.V != p.E.V {
		t.Errorf("Cf.V %v != E.V %v", p.Cf.V, p.E.V)
	}
	if p.Cf.F >= p.E.F {
		t.Errorf("Cf.F %v not below E.F %v", p.Cf.F, p.E.F)
	}
	if cons.VoltageAt(p.Cf.F) > p.Cf.V {
		t.Errorf("Cf is not conservative-curve safe: needs %v, has %v", cons.VoltageAt(p.Cf.F), p.Cf.V)
	}
	// Cv: the conservative curve at full sustained (TDP-legal)
	// performance — the baseline operating point.
	if p.Cv != p.Base {
		t.Errorf("Cv = %+v, want the baseline point %+v", p.Cv, p.Base)
	}
	if p.Cv.V != cons.VoltageAt(p.Cv.F) {
		t.Errorf("Cv voltage %v not on the conservative curve", p.Cv.V)
	}
}

func TestBaselineRunDeterministicTiming(t *testing.T) {
	// 1e9 instructions at IPC 2 on the baseline frequency must take
	// total/(IPC·f) seconds exactly — no traps, no switches.
	tr := testTrace(1_000_000_000, 2)
	cfg := testConfig(tr)
	res := runWith(t, cfg, pinnedBase{})
	m, _ := New(cfg, pinnedBase{})
	f := m.pts.Base.F
	want := units.Second(float64(tr.Total) / (tr.IPC * float64(f)))
	if diff := float64(res.Duration-want) / float64(want); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("duration %v, want %v", res.Duration, want)
	}
	if res.Exceptions != 0 || res.Switches != 0 || res.DeadlineFires != 0 {
		t.Errorf("baseline had events: %+v", res)
	}
	if len(res.Faults) != 0 {
		t.Errorf("baseline recorded faults: %v", res.Faults)
	}
	if res.Instructions != tr.Total {
		t.Errorf("instructions %d", res.Instructions)
	}
	if res.Energy <= 0 || res.AvgPower <= 0 {
		t.Errorf("no energy accounted: %v %v", res.Energy, res.AvgPower)
	}
}

func TestTrapSwitchesToConservativeAndBack(t *testing.T) {
	// One faultable instruction mid-stream: expect one exception, a
	// switch to Cf/Cv and a deadline-driven return to E.
	tr := testTrace(200_000_000, 2, 100_000_000)
	cfg := testConfig(tr)
	res := runWith(t, cfg, fvLite{deadline: units.Microseconds(30)})
	if res.Exceptions != 1 {
		t.Fatalf("exceptions = %d, want 1", res.Exceptions)
	}
	if res.DeadlineFires != 1 {
		t.Errorf("deadline fires = %d, want 1", res.DeadlineFires)
	}
	if len(res.Faults) != 0 {
		t.Errorf("SUIT run recorded faults: %v", res.Faults)
	}
	// Residency: mostly E, a little conservative time.
	if res.EfficientShare() < 0.9 {
		t.Errorf("efficient share = %v, want > 0.9", res.EfficientShare())
	}
	if res.Residency[ModeCf]+res.Residency[ModeCv] == 0 {
		t.Error("no conservative residency despite a trap")
	}
}

func TestSUITNeverFaults(t *testing.T) {
	// Dense faultable stream under fV: the monitor must stay clean.
	var idx []uint64
	for i := uint64(1_000_000); i < 50_000_000; i += 1_000_000 {
		idx = append(idx, i)
	}
	tr := testTrace(60_000_000, 2, idx...)
	res := runWith(t, testConfig(tr), fvLite{deadline: units.Microseconds(30)})
	if len(res.Faults) != 0 {
		t.Fatalf("SUIT recorded %d faults; first: %+v", len(res.Faults), res.Faults[0])
	}
	if res.Exceptions == 0 {
		t.Fatal("no exceptions despite dense faultable stream")
	}
}

func TestUnsafeUndervoltingFaults(t *testing.T) {
	// A pre-SUIT CPU blindly undervolted (pinned to E, nothing disabled)
	// executes faultable instructions below their margin: the monitor
	// must record silent corruption — the attack SUIT prevents.
	tr := testTrace(10_000_000, 2, 5_000_000)
	cfg := testConfig(tr)
	cfg.AllowUnsafe = true
	res := runWith(t, cfg, unsafePinnedE{})
	if len(res.Faults) == 0 {
		t.Fatal("unsafe undervolting recorded no faults")
	}
	f := res.Faults[0]
	if f.Op != isa.OpAESENC || f.Margin <= 0 {
		t.Errorf("fault record %+v", f)
	}
	if res.Exceptions != 0 {
		t.Error("nothing was disabled; no exceptions expected")
	}
}

// TestMonitorExactAtMargin: executing exactly at the margin is safe
// (guardband.Faults), and any deeper faults. On E the background ops sit
// exactly at their margin on every chip, so an ALU-only trace under fvLite
// must record no fault; an efficient curve 1 µV deeper must fault every
// ALU op, by 1 µV.
func TestMonitorExactAtMargin(t *testing.T) {
	alu := &trace.Trace{Name: "alu", Total: 1_000_000, IPC: 2}
	for i := uint64(1); i <= 18; i++ {
		alu.Events = append(alu.Events, trace.Event{Index: i * 50_000, Op: isa.OpALU})
	}
	fv := fvLite{deadline: units.Microseconds(30)}
	for ci, chip := range ffChips {
		cfg := testConfig(alu)
		cfg.Chip = chip()
		res := runWith(t, cfg, fv)
		if len(res.Faults) != 0 {
			t.Errorf("chip %d: %d ALU ops at their margin recorded as faults, first %+v", ci, len(res.Faults), res.Faults[0])
		}
		if res.EfficientShare() != 1 {
			t.Errorf("chip %d: efficient share %v, want 1", ci, res.EfficientShare())
		}

		cfg.Offset -= units.MilliVolts(0.001)
		res = runWith(t, cfg, fv)
		if len(res.Faults) != len(alu.Events) {
			t.Errorf("chip %d: %d faults 1 µV below the margin, want %d", ci, len(res.Faults), len(alu.Events))
		}
		for _, f := range res.Faults {
			if math.Abs(float64(f.Margin)-1e-6) > 1e-12 {
				t.Errorf("chip %d: fault margin %v, want 1 µV", ci, f.Margin)
				break
			}
		}
	}
}

type unsafePinnedE struct{}

func (unsafePinnedE) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.RequestAsync(d, ModeE)
	}
}
func (unsafePinnedE) OnDisabledOpcode(Controller, int, int, isa.Opcode) {}
func (unsafePinnedE) OnDeadline(Controller, int)                        {}

// enableOnE re-enables the faultable set inside its #DO handler, while
// the domain targets E, and checks where the interlock sends it.
type enableOnE struct{ t *testing.T }

func (enableOnE) Init(ctl Controller) { bootEfficient(ctl) }
func (s enableOnE) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.EnableInstructions(domain)
	if m := ctl.Mode(domain); m != ModeCv {
		s.t.Fatalf("enabling the faultable set on E left the domain targeting %v, want Cv", m)
	}
}
func (enableOnE) OnDeadline(Controller, int) {}

func TestHardwareInterlockRefusesUnsafeEfficient(t *testing.T) {
	// Selecting the efficient curve without disabling the instructions
	// must be refused by SUIT hardware (§3.2): no switch, no time on E,
	// and the faultable instruction runs safely on the baseline.
	cfg := testConfig(testTrace(10_000_000, 2, 5_000_000)) // AllowUnsafe is false here
	res := runWith(t, cfg, unsafePinnedE{})
	if res.Residency[ModeE] != 0 || res.Switches != 0 {
		t.Errorf("refused request moved the domain: E residency %v, %d switches", res.Residency[ModeE], res.Switches)
	}
	if len(res.Faults) != 0 || res.Exceptions != 0 {
		t.Errorf("faults %v, exceptions %d on the baseline", res.Faults, res.Exceptions)
	}
	// The enable direction: enabling the set makes E refused, so a domain
	// that targets E is sent to Cv.
	res = runWith(t, cfg, enableOnE{t})
	if res.Exceptions == 0 || len(res.Faults) != 0 {
		t.Errorf("enable on E: %d exceptions, faults %v", res.Exceptions, res.Faults)
	}
}

func TestEmulationConsumesInstructions(t *testing.T) {
	tr := testTrace(10_000_000, 2, 1_000_000, 2_000_000, 3_000_000)
	res := runWith(t, testConfig(tr), emulAll{})
	if res.Exceptions != 3 || res.Emulated != 3 {
		t.Fatalf("exceptions=%d emulated=%d, want 3/3", res.Exceptions, res.Emulated)
	}
	// Never left the efficient curve.
	if res.Residency[ModeCf] != 0 && res.Residency[ModeCv] != 0 {
		t.Error("emulation strategy switched curves")
	}
	if res.EfficientShare() < 0.99 {
		t.Errorf("efficient share %v", res.EfficientShare())
	}
	if len(res.Faults) != 0 {
		t.Errorf("faults under emulation: %v", res.Faults)
	}
}

func TestDeadlineResetByFaultableExecution(t *testing.T) {
	// Two faultable instructions closer together than the deadline: the
	// second must execute on the conservative curve without a second
	// trap, and the timer must fire only after the burst ends.
	ipc := 2.0
	f := 3.2e9                             // Xeon top frequency
	gap30us := uint64(30e-6 * ipc * f / 2) // half a deadline apart
	first := uint64(50_000_000)
	tr := testTrace(200_000_000, ipc, first, first+gap30us)
	res := runWith(t, testConfig(tr), fvLite{deadline: units.Microseconds(30)})
	if res.Exceptions != 1 {
		t.Errorf("exceptions = %d, want 1 (second instruction inside deadline)", res.Exceptions)
	}
	if res.DeadlineFires != 1 {
		t.Errorf("deadline fires = %d, want 1", res.DeadlineFires)
	}
	if len(res.Faults) != 0 {
		t.Errorf("faults: %v", res.Faults)
	}
}

func TestGapLongerThanDeadlineRetraps(t *testing.T) {
	ipc := 2.0
	f := 3.2e9
	gap1ms := uint64(1e-3 * ipc * f)
	first := uint64(50_000_000)
	tr := testTrace(2_000_000_000, ipc, first, first+gap1ms)
	res := runWith(t, testConfig(tr), fvLite{deadline: units.Microseconds(30)})
	if res.Exceptions != 2 {
		t.Errorf("exceptions = %d, want 2 (gap exceeds deadline)", res.Exceptions)
	}
	if res.DeadlineFires != 2 {
		t.Errorf("deadline fires = %d, want 2", res.DeadlineFires)
	}
}

func TestSUITCostsTimeVersusBaseline(t *testing.T) {
	// With the same operating point pinned, a trap-heavy stream under
	// fV must take longer than the same stream with nothing disabled at
	// the same efficient point (transitions cost time)...
	var idx []uint64
	for i := uint64(1_000_000); i < 190_000_000; i += 2_000_000 {
		idx = append(idx, i)
	}
	tr := testTrace(200_000_000, 2, idx...)
	cfg := testConfig(tr)
	suit := runWith(t, cfg, fvLite{deadline: units.Microseconds(30)})

	unsafeCfg := cfg
	unsafeCfg.AllowUnsafe = true
	unsafe := runWith(t, unsafeCfg, unsafePinnedE{})
	if suit.Duration <= unsafe.Duration {
		t.Errorf("SUIT %v not slower than unconstrained efficient %v", suit.Duration, unsafe.Duration)
	}
	// ...but SUIT is safe while the pinned-efficient run faulted.
	if len(suit.Faults) != 0 {
		t.Error("SUIT faulted")
	}
	if len(unsafe.Faults) == 0 {
		t.Error("unsafe run did not fault")
	}
}

func TestMultiCoreSingleDomainInterference(t *testing.T) {
	// On a single-domain chip (𝒜), one core's faultable bursts drag all
	// cores' curves; duration of a clean co-runner grows versus running
	// the trap-heavy core alone on a per-core-domain chip.
	var idx []uint64
	for i := uint64(1_000_000); i < 90_000_000; i += 1_000_000 {
		idx = append(idx, i)
	}
	noisy := testTrace(100_000_000, 2, idx...)
	clean := testTrace(100_000_000, 2)

	mk := func(chip dvfs.Chip) Config {
		cfg := testConfig(noisy, clean)
		cfg.Chip = chip
		return cfg
	}
	single := runWith(t, mk(dvfs.IntelI9_9900K()), fvLite{deadline: units.Microseconds(30)})
	perCore := runWith(t, mk(dvfs.XeonSilver4208()), fvLite{deadline: units.Microseconds(30)})

	// On the single-domain chip the clean core suffers with the noisy
	// one; on per-core domains it does not. Compare the clean core's
	// completion relative to its own solo time per chip.
	solo := func(chip dvfs.Chip) Result {
		cfg := testConfig(clean)
		cfg.Chip = chip
		return runWith(t, cfg, fvLite{deadline: units.Microseconds(30)})
	}
	slowdownSingle := float64(single.PerCore[1]) / float64(solo(dvfs.IntelI9_9900K()).PerCore[0])
	slowdownPerCore := float64(perCore.PerCore[1]) / float64(solo(dvfs.XeonSilver4208()).PerCore[0])
	if slowdownSingle < 1.001 {
		t.Errorf("clean core on single domain unaffected by noisy neighbour: %v", slowdownSingle)
	}
	if slowdownPerCore > 1.0001 {
		t.Errorf("clean core on per-core domains slowed by neighbour: %v", slowdownPerCore)
	}
	if slowdownPerCore >= slowdownSingle {
		t.Errorf("per-core slowdown %v not below single-domain slowdown %v",
			slowdownPerCore, slowdownSingle)
	}
}

func TestResultEfficientShareEmpty(t *testing.T) {
	var r Result
	if r.EfficientShare() != 0 {
		t.Error("empty result must have zero efficient share")
	}
}
