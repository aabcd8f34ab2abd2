package power

import (
	"math"
	"testing"
	"testing/quick"

	"suit/internal/units"
)

func testModel() Model {
	return Model{CoreCeff: 1e-9, LeakGV: 2, Uncore: 5}
}

func TestModelValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []Model{
		{CoreCeff: 0, LeakGV: 1, Uncore: 1},
		{CoreCeff: -1, LeakGV: 1, Uncore: 1},
		{CoreCeff: 1e-9, LeakGV: -1, Uncore: 1},
		{CoreCeff: 1e-9, LeakGV: 1, Uncore: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestDynamicQuadraticInVoltage(t *testing.T) {
	// §2.1: switching energy depends on V² — halving V quarters P_dyn.
	m := testModel()
	f := units.GHz(4)
	p1 := m.Dynamic(1.0, f, 1)
	p2 := m.Dynamic(0.5, f, 1)
	if math.Abs(float64(p1)/float64(p2)-4) > 1e-9 {
		t.Errorf("P(1V)/P(0.5V) = %v, want 4", float64(p1)/float64(p2))
	}
}

func TestDynamicLinearInFrequencyAndActivity(t *testing.T) {
	m := testModel()
	if got, want := m.Dynamic(1, units.GHz(4), 1), 2*m.Dynamic(1, units.GHz(2), 1); math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("frequency linearity: %v vs %v", got, want)
	}
	if got, want := m.Dynamic(1, units.GHz(4), 0.5), m.Dynamic(1, units.GHz(4), 1)/2; math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("activity linearity: %v vs %v", got, want)
	}
}

func TestActivityClamped(t *testing.T) {
	m := testModel()
	if m.Dynamic(1, units.GHz(4), -3) != 0 {
		t.Error("negative activity must clamp to 0")
	}
	if m.Dynamic(1, units.GHz(4), 7) != m.Dynamic(1, units.GHz(4), 1) {
		t.Error("activity above 1 must clamp to 1")
	}
}

func TestLeakageIndependentOfFrequency(t *testing.T) {
	m := testModel()
	if math.Abs(float64(m.Leakage(1.1))-2*1.1*1.1) > 1e-12 {
		t.Errorf("Leakage(1.1) = %v", m.Leakage(1.1))
	}
	// Core at activity 0 still leaks.
	if got := m.Core(1.1, units.GHz(5), 0); got != m.Leakage(1.1) {
		t.Errorf("idle core power %v != leakage %v", got, m.Leakage(1.1))
	}
}

func TestPackageAggregation(t *testing.T) {
	m := testModel()
	cores := []CoreState{
		{V: 1.0, F: units.GHz(4), Activity: 1},
		{V: 0.9, F: units.GHz(3), Activity: 0.5},
	}
	want := m.Uncore + m.Core(1.0, units.GHz(4), 1) + m.Core(0.9, units.GHz(3), 0.5)
	if got := m.Package(cores); math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("Package = %v, want %v", got, want)
	}
	if got := m.Package(nil); got != m.Uncore {
		t.Errorf("empty package = %v, want uncore %v", got, m.Uncore)
	}
}

func TestUndervoltingReducesPower(t *testing.T) {
	// The headline physics: a −97 mV offset at constant frequency lowers
	// package power.
	m := testModel()
	f := units.GHz(4)
	base := m.Core(1.0, f, 1)
	uv := m.Core(1.0+units.MilliVolts(-97), f, 1)
	if uv >= base {
		t.Errorf("undervolted power %v >= nominal %v", uv, base)
	}
	// Roughly quadratic: expect ~18-19% reduction for ~9.7% voltage cut
	// on the dynamic part; with leakage also quadratic the whole core
	// scales by (0.903)².
	ratio := float64(uv) / float64(base)
	want := 0.903 * 0.903
	if math.Abs(ratio-want) > 1e-6 {
		t.Errorf("power ratio %v, want %v", ratio, want)
	}
}

func TestRAPLQuantisation(t *testing.T) {
	r := NewRAPL(0)
	if r.unit != DefaultRAPLUnit {
		t.Fatalf("default unit = %v", r.unit)
	}
	// Deposits below one unit accumulate in the residue.
	r.Deposit(DefaultRAPLUnit / 4)
	if r.Counter() != 0 {
		t.Errorf("counter ticked early: %d", r.Counter())
	}
	r.Deposit(DefaultRAPLUnit * 3 / 4)
	if r.Counter() != 1 {
		t.Errorf("counter = %d, want 1", r.Counter())
	}
}

func TestRAPLConservesEnergy(t *testing.T) {
	r := NewRAPL(0)
	total := units.Joule(0)
	for i := 0; i < 1000; i++ {
		e := units.Joule(float64(i%7) * 1e-5)
		r.Deposit(e)
		total += e
	}
	measured := units.Joule(float64(r.Counter()) * float64(r.unit))
	if math.Abs(float64(measured-total)) > float64(r.unit) {
		t.Errorf("measured %v vs deposited %v differs by more than one unit", measured, total)
	}
}

func TestRAPLWrapAround(t *testing.T) {
	// The 32-bit counter wraps like the hardware's, and a consumer's
	// uint32 difference across the wrap still recovers the energy.
	r := NewRAPL(0)
	r.Deposit(units.Joule(float64(0xFFFFFFF0) * float64(r.unit)))
	c0 := r.Counter()
	r.Deposit(units.Joule(float64(0x20) * float64(r.unit)))
	c1 := r.Counter()
	if c0 != 0xFFFFFFF0 || c1 != 0x10 {
		t.Fatalf("counter %#x then %#x, want 0xfffffff0 then 0x10", c0, c1)
	}
	if got := units.Joule(float64(c1-c0) * float64(r.unit)); got != units.Joule(float64(0x20)*float64(r.unit)) {
		t.Errorf("energy across the wrap = %v, want 32 units", got)
	}
}

func TestRAPLPanicsOnNegativeDeposit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative deposit did not panic")
		}
	}()
	NewRAPL(0).Deposit(-1)
}

func TestPowerMonotoneInVoltage(t *testing.T) {
	m := testModel()
	prop := func(rawV1, rawV2 uint16, rawF uint16) bool {
		v1 := units.Volt(0.5 + float64(rawV1%1000)/2000) // 0.5..1.0
		v2 := units.Volt(0.5 + float64(rawV2%1000)/2000)
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		f := units.GHz(1 + float64(rawF%40)/10)
		return m.Core(v1, f, 1) <= m.Core(v2, f, 1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
