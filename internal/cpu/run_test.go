package cpu

import (
	"math"
	"testing"

	"suit/internal/dvfs"
	"suit/internal/isa"
	"suit/internal/trace"
	"suit/internal/units"
)

// vLite / fLite are single-knob strategies for focused timing tests.
type vLite struct{ deadline units.Second }

func (vLite) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.DisableInstructions(d)
		ctl.RequestAsync(d, ModeE)
	}
}
func (s vLite) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.RequestWait(domain, ModeCv)
	ctl.EnableInstructions(domain)
	ctl.ArmDeadline(domain, s.deadline)
}
func (s vLite) OnDeadline(ctl Controller, domain int) {
	ctl.DisableInstructions(domain)
	ctl.RequestAsync(domain, ModeE)
}

type fLite struct{ deadline units.Second }

func (fLite) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.DisableInstructions(d)
		ctl.RequestAsync(d, ModeE)
	}
}
func (s fLite) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.RequestWait(domain, ModeCf)
	ctl.EnableInstructions(domain)
	ctl.ArmDeadline(domain, s.deadline)
}
func (s fLite) OnDeadline(ctl Controller, domain int) {
	ctl.DisableInstructions(domain)
	ctl.RequestAsync(domain, ModeE)
}

func TestVoltOnlyTrapBlocksForVoltageSettle(t *testing.T) {
	// A single trap under the voltage-only strategy blocks the core for
	// roughly the voltage settle time (Fig 4's CV arm) — an order of
	// magnitude longer than the frequency switch (§4.3).
	tr1 := testTrace(200_000_000, 2, 100_000_000)
	tr2 := testTrace(200_000_000, 2, 100_000_000)
	cfgV := testConfig(tr1)
	cfgF := testConfig(tr2)
	resV := runWith(t, cfgV, vLite{deadline: units.Microseconds(30)})
	resF := runWith(t, cfgF, fLite{deadline: units.Microseconds(30)})
	if resV.Exceptions != 1 || resF.Exceptions != 1 {
		t.Fatalf("exceptions V=%d f=%d, want 1 each", resV.Exceptions, resF.Exceptions)
	}
	extraV := resV.Duration - resF.Duration
	// Xeon volt delay 335 µs vs freq delay 31 µs: the V strategy should
	// lose roughly the difference once.
	if extraV < units.Microseconds(150) || extraV > units.Microseconds(800) {
		t.Errorf("V-vs-f extra block = %v, want ≈300 µs", extraV)
	}
}

func TestFreqOnlyNeverRaisesVoltage(t *testing.T) {
	// Under the f strategy the domain voltage never exceeds the
	// efficient level: check via the fault monitor surrogate — run a
	// trace and assert Cv residency is zero.
	var idx []uint64
	for i := uint64(1_000_000); i < 190_000_000; i += 10_000_000 {
		idx = append(idx, i)
	}
	tr := testTrace(200_000_000, 2, idx...)
	res := runWith(t, testConfig(tr), fLite{deadline: units.Microseconds(30)})
	if res.Residency[ModeCv] != 0 {
		t.Errorf("frequency-only run has Cv residency %v", res.Residency[ModeCv])
	}
	if res.Residency[ModeCf] == 0 {
		t.Error("no Cf residency despite traps")
	}
}

func TestTimelineRecording(t *testing.T) {
	tr := testTrace(200_000_000, 2, 100_000_000)
	cfg := testConfig(tr)
	cfg.RecordTimeline = true
	res := runWith(t, cfg, fvLite{deadline: units.Microseconds(30)})
	// Init E, trap → Cf, Cv, deadline → E: at least 4 entries, strictly
	// non-decreasing timestamps.
	if len(res.Timeline) < 4 {
		t.Fatalf("timeline has %d entries", len(res.Timeline))
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].T < res.Timeline[i-1].T {
			t.Fatalf("timeline not ordered at %d", i)
		}
	}
	wantModes := []Mode{ModeE, ModeCf, ModeCv, ModeE}
	for i, want := range wantModes {
		if res.Timeline[i].Mode != want {
			t.Errorf("timeline[%d] = %v, want %v", i, res.Timeline[i].Mode, want)
		}
	}
	// Without the flag, no timeline is recorded.
	cfg2 := testConfig(testTrace(200_000_000, 2, 100_000_000))
	res2 := runWith(t, cfg2, fvLite{deadline: units.Microseconds(30)})
	if len(res2.Timeline) != 0 {
		t.Error("timeline recorded without the flag")
	}
}

func TestRAPLCounterMatchesEnergy(t *testing.T) {
	tr := testTrace(500_000_000, 2, 100_000_000, 300_000_000)
	res := runWith(t, testConfig(tr), fvLite{deadline: units.Microseconds(30)})
	// The RAPL counter (61 µJ units) must agree with the integrator to
	// within one unit.
	raplJ := float64(res.RAPLCounter) / 16384
	if math.Abs(raplJ-float64(res.Energy)) > 1.0/16384+1e-9 {
		t.Errorf("RAPL %.6f J vs integrator %v", raplJ, res.Energy)
	}
	if res.Energy <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestPerCoreFreqChipBuildsPerCoreDomains(t *testing.T) {
	cfg := testConfig(testTrace(1000, 1), testTrace(1000, 1), testTrace(1000, 1))
	cfg.Chip = dvfs.AMDRyzen7700X()
	m, err := New(cfg, pinnedBase{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.domains) != 3 {
		t.Errorf("7700X machine has %d domains for 3 cores, want 3", len(m.domains))
	}
	single := testConfig(testTrace(1000, 1), testTrace(1000, 1))
	single.Chip = dvfs.IntelI9_9900K()
	m2, err := New(single, pinnedBase{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.domains) != 1 {
		t.Errorf("i9 machine has %d domains, want 1", len(m2.domains))
	}
}

func TestHardenedIMULTraceExecutesWithoutTraps(t *testing.T) {
	// IMUL events in the trace are not in the faultable set: they
	// execute on the efficient curve without trapping and — hardened —
	// without faulting.
	tr := &trace.Trace{Name: "imul", Total: 10_000_000, IPC: 2}
	for i := uint64(1); i <= 1000; i++ {
		tr.Events = append(tr.Events, trace.Event{Index: i * 5600, Op: isa.OpIMUL})
	}
	cfg := testConfig(tr)
	res := runWith(t, cfg, fvLite{deadline: units.Microseconds(30)})
	if res.Exceptions != 0 {
		t.Errorf("hardened IMUL trapped %d times", res.Exceptions)
	}
	if len(res.Faults) != 0 {
		t.Errorf("hardened IMUL faulted: %v", res.Faults)
	}
	// The same trace on an unhardened machine faults on the efficient
	// curve (the §4.2 motivation).
	cfg2 := testConfig(tr)
	cfg2.HardenedIMUL = false
	res2 := runWith(t, cfg2, fvLite{deadline: units.Microseconds(30)})
	if len(res2.Faults) == 0 {
		t.Error("stock IMUL survived the efficient curve")
	}
}

func TestTrapIMULAblationPinsConservative(t *testing.T) {
	tr := &trace.Trace{Name: "imul", Total: 50_000_000, IPC: 2}
	for i := uint64(1); i*560 < tr.Total; i += 1 {
		tr.Events = append(tr.Events, trace.Event{Index: i * 560, Op: isa.OpIMUL})
	}
	cfg := testConfig(tr)
	cfg.TrapIMUL = true
	cfg.HardenedIMUL = false
	res := runWith(t, cfg, fvLite{deadline: units.Microseconds(30)})
	if res.Exceptions == 0 {
		t.Fatal("TrapIMUL machine never trapped")
	}
	if res.EfficientShare() > 0.05 {
		t.Errorf("efficient share %v; an IMUL every 560 instructions should pin the conservative curve", res.EfficientShare())
	}
	if len(res.Faults) != 0 {
		t.Errorf("trapped IMUL still faulted: %v", res.Faults)
	}
}

func TestDeadlineNoResetAblation(t *testing.T) {
	// Two faultable instructions half a deadline apart: with the reset
	// the second executes quietly; without it the timer fires mid-burst
	// and the second instruction traps again.
	ipc, f := 2.0, 3.2e9
	gap := uint64(20e-6 * ipc * f)
	first := uint64(50_000_000)
	mk := func() *trace.Trace { return testTrace(400_000_000, ipc, first, first+gap, first+2*gap) }

	withReset := testConfig(mk())
	r1 := runWith(t, withReset, fvLite{deadline: units.Microseconds(30)})
	noReset := testConfig(mk())
	noReset.NoDeadlineReset = true
	r2 := runWith(t, noReset, fvLite{deadline: units.Microseconds(30)})
	if r1.Exceptions != 1 {
		t.Errorf("with reset: %d exceptions, want 1", r1.Exceptions)
	}
	if r2.Exceptions <= r1.Exceptions {
		t.Errorf("without reset: %d exceptions, want more than %d", r2.Exceptions, r1.Exceptions)
	}
	if len(r1.Faults)+len(r2.Faults) != 0 {
		t.Error("ablation faulted")
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{ModeBase: "base", ModeE: "E", ModeCf: "Cf", ModeCv: "Cv", Mode(99): "Mode(99)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestPointsGet(t *testing.T) {
	p := Points{
		Base: Point{F: 1, V: 1}, E: Point{F: 2, V: 2},
		Cf: Point{F: 3, V: 3}, Cv: Point{F: 4, V: 4},
	}
	if p.Get(ModeE) != p.E || p.Get(ModeCf) != p.Cf || p.Get(ModeCv) != p.Cv {
		t.Error("Get mapping wrong")
	}
	if p.Get(ModeBase) != p.Base || p.Get(Mode(99)) != p.Base {
		t.Error("default mapping wrong")
	}
}

func TestEmptyTraceCompletesInstantly(t *testing.T) {
	tr := testTrace(1_000_000, 2)
	res := runWith(t, testConfig(tr), pinnedBase{})
	want := units.Second(1_000_000 / (2 * 3.0e9))
	if math.Abs(float64(res.Duration-want)/float64(want)) > 1e-9 {
		t.Errorf("duration %v, want %v", res.Duration, want)
	}
}

func TestEventAtIndexZero(t *testing.T) {
	// A faultable instruction as the very first instruction must trap
	// cleanly at t=0 without time going backwards.
	tr := testTrace(10_000_000, 2, 0)
	res := runWith(t, testConfig(tr), fvLite{deadline: units.Microseconds(30)})
	if res.Exceptions != 1 {
		t.Errorf("exceptions = %d, want 1", res.Exceptions)
	}
}

func TestBackToBackFaultableInstructions(t *testing.T) {
	// Adjacent faultable instructions: one trap, then both execute on
	// the conservative curve.
	tr := testTrace(10_000_000, 2, 5_000_000, 5_000_001, 5_000_002)
	res := runWith(t, testConfig(tr), fvLite{deadline: units.Microseconds(30)})
	if res.Exceptions != 1 {
		t.Errorf("exceptions = %d, want 1 (burst absorbed)", res.Exceptions)
	}
	if len(res.Faults) != 0 {
		t.Errorf("faults: %v", res.Faults)
	}
}

func TestStateSampling(t *testing.T) {
	tr := testTrace(200_000_000, 2, 100_000_000)
	cfg := testConfig(tr)
	cfg.SampleEvery = units.Microseconds(5)
	res := runWith(t, cfg, fvLite{deadline: units.Microseconds(30)})
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	// Samples lie on the grid and are strictly increasing.
	for i, s := range res.Samples {
		if i > 0 && s.T <= res.Samples[i-1].T {
			t.Fatalf("samples not increasing at %d", i)
		}
		steps := float64(s.T) / 5e-6
		if math.Abs(steps-math.Round(steps)) > 1e-6 {
			t.Fatalf("sample %d at %v off the 5 µs grid", i, s.T)
		}
	}
	// The trap must be visible: some samples at the Cf frequency.
	pts := Points{}
	m, _ := New(cfg, fvLite{deadline: units.Microseconds(30)})
	pts = m.pts
	var sawE, sawConservative bool
	for _, s := range res.Samples {
		if s.F == pts.E.F && s.Mode == ModeE {
			sawE = true
		}
		if s.F == pts.Cf.F {
			sawConservative = true
		}
	}
	if !sawE || !sawConservative {
		t.Errorf("sampling missed operating points: E=%t Cf=%t", sawE, sawConservative)
	}
	// Without the knob, no samples.
	cfg2 := testConfig(testTrace(1_000_000, 2))
	res2 := runWith(t, cfg2, pinnedBase{})
	if len(res2.Samples) != 0 {
		t.Error("samples recorded without SampleEvery")
	}
}

func TestEmulationResolvesEveryFaultableOpcode(t *testing.T) {
	// Every faultable opcode trapped under the emulation strategy is
	// resolved in software, without a fault. That each has a working
	// replacement is emul.TestEmulateDispatch's check.
	tr := &trace.Trace{Name: "all-ops", Total: 10_000_000, IPC: 2}
	for i, op := range isa.Faultable() {
		tr.Events = append(tr.Events, trace.Event{Index: uint64(i+1) * 100_000, Op: op})
	}
	res := runWith(t, testConfig(tr), emulAll{})
	if res.Emulated != len(isa.Faultable()) {
		t.Errorf("emulated %d of %d opcodes", res.Emulated, len(isa.Faultable()))
	}
	if len(res.Faults) != 0 {
		t.Error("emulation run faulted")
	}
}

// inspectStrategy exercises the read-only controller surface from inside
// a handler, then parks the domain at Cf.
type inspectStrategy struct {
	t *testing.T
}

func (s inspectStrategy) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.DisableInstructions(d)
		ctl.RequestAsync(d, ModeE)
	}
}
func (s inspectStrategy) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	if ctl.Mode(domain) != ModeE {
		s.t.Errorf("mode at trap = %v, want E", ctl.Mode(domain))
	}
	if ctl.Now() <= 0 {
		s.t.Error("handler clock not advanced past zero")
	}
	if n := ctl.ExceptionsWithin(domain, units.Milliseconds(100)); n != 1 {
		s.t.Errorf("ExceptionsWithin = %d, want 1 (this trap)", n)
	}
	ctl.RequestWait(domain, ModeCf)
	ctl.EnableInstructions(domain)
}
func (s inspectStrategy) OnDeadline(ctl Controller, domain int) {
	s.t.Error("deadline fired though none was armed")
}

func TestControllerReadSurface(t *testing.T) {
	tr := testTrace(100_000_000, 2, 50_000_000)
	res := runWith(t, testConfig(tr), inspectStrategy{t: t})
	if res.Exceptions != 1 {
		t.Fatalf("exceptions = %d", res.Exceptions)
	}
	// Machine parked at Cf for the rest of the run.
	if res.Residency[ModeCf] == 0 {
		t.Error("no Cf residency after the park")
	}
}

func TestMachineNowAndZeroExceptionDelay(t *testing.T) {
	cfg := testConfig(testTrace(10_000_000, 2, 5_000_000))
	cfg.ExceptionDelay = 0 // must clamp to a positive epsilon internally
	m, err := New(cfg, fvLite{deadline: units.Microseconds(30)})
	if err != nil {
		t.Fatal(err)
	}
	if m.now != 0 {
		t.Error("fresh machine clock nonzero")
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Exceptions != 1 {
		t.Errorf("exceptions = %d", res.Exceptions)
	}
	if m.now <= 0 {
		t.Error("clock did not advance")
	}
}
