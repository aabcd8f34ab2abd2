package dvfs

import (
	"math"
	"testing"
	"testing/quick"

	"suit/internal/units"
)

func testCurve() Curve {
	return Curve{Name: "test", States: []PState{
		{Ratio: 10, F: units.GHz(1), V: 0.80},
		{Ratio: 20, F: units.GHz(2), V: 0.90},
		{Ratio: 40, F: units.GHz(4), V: 1.10},
	}}
}

func TestCurveValidate(t *testing.T) {
	if err := testCurve().Validate(); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
	bad := []Curve{
		{Name: "empty"},
		{Name: "zeroF", States: []PState{{F: 0, V: 1}}},
		{Name: "zeroV", States: []PState{{F: units.GHz(1), V: 0}}},
		{Name: "nonmonotoneF", States: []PState{{F: units.GHz(2), V: 0.9}, {F: units.GHz(1), V: 1.0}}},
		{Name: "equalF", States: []PState{{F: units.GHz(2), V: 0.9}, {F: units.GHz(2), V: 1.0}}},
		{Name: "decreasingV", States: []PState{{F: units.GHz(1), V: 1.0}, {F: units.GHz(2), V: 0.9}}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("curve %q accepted", c.Name)
		}
	}
}

func TestVoltageAtInterpolationAndClamping(t *testing.T) {
	c := testCurve()
	if got := c.VoltageAt(units.GHz(0.5)); got != 0.80 {
		t.Errorf("below range: %v, want clamp to 0.80", got)
	}
	if got := c.VoltageAt(units.GHz(5)); got != 1.10 {
		t.Errorf("above range: %v, want clamp to 1.10", got)
	}
	if got := c.VoltageAt(units.GHz(1.5)); math.Abs(float64(got)-0.85) > 1e-12 {
		t.Errorf("midpoint: %v, want 0.85", got)
	}
	if got := c.VoltageAt(units.GHz(3)); math.Abs(float64(got)-1.0) > 1e-12 {
		t.Errorf("interpolated: %v, want 1.0", got)
	}
	// Exactly at a p-state.
	if got := c.VoltageAt(units.GHz(2)); got != 0.90 {
		t.Errorf("at state: %v, want 0.90", got)
	}
}

func TestVoltageAtMonotone(t *testing.T) {
	c := IntelI9_9900K().Vendor
	prop := func(a, b uint16) bool {
		f1 := units.GHz(0.5 + float64(a%500)/100) // 0.5..5.5 GHz
		f2 := units.GHz(0.5 + float64(b%500)/100)
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		return c.VoltageAt(f1) <= c.VoltageAt(f2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStateAt(t *testing.T) {
	c := testCurve()
	if s, ok := c.StateAt(20); !ok || s.F != units.GHz(2) {
		t.Errorf("StateAt(20) = %+v, %t", s, ok)
	}
	if _, ok := c.StateAt(99); ok {
		t.Error("StateAt(99) found a phantom state")
	}
}

func TestI9GradientMatchesPaper(t *testing.T) {
	// §5.6: the 4→5 GHz gradient on the i9-9900K is 183 mV/GHz and the
	// 5 GHz voltage is 1.174 V.
	c := IntelI9_9900K().Vendor
	mvPerGHz := c.Gradient() * 1e9 * 1000
	if math.Abs(mvPerGHz-183) > 1 {
		t.Errorf("gradient = %.1f mV/GHz, want 183", mvPerGHz)
	}
	if top := c.Top(); top.V != 1.174 || top.F != units.GHz(5) {
		t.Errorf("top state = %+v", top)
	}
	if got := c.VoltageAt(units.GHz(4)); math.Abs(float64(got)-0.991) > 1e-9 {
		t.Errorf("V(4 GHz) = %v, want 0.991 (paper §5.7: 991 mV)", got)
	}
}

func TestGradientDegenerate(t *testing.T) {
	c := Curve{Name: "one", States: []PState{{Ratio: 1, F: units.GHz(1), V: 1}}}
	if c.Gradient() != 0 {
		t.Error("single-state curve gradient must be 0")
	}
}

func TestDomainKindStrings(t *testing.T) {
	kinds := map[DomainKind]string{
		SingleDomain: "single-domain",
		PerCoreFreq:  "per-core-frequency",
		PerCoreBoth:  "per-core-frequency+voltage",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if DomainKind(9).String() != "DomainKind(9)" {
		t.Error("unknown DomainKind string wrong")
	}
}

func TestTransitionModelValidate(t *testing.T) {
	good := TransitionModel{FreqDelay: 1e-5, VoltDelay: 1e-4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []TransitionModel{
		{FreqDelay: -1},
		{VoltDelay: -1},
		{FreqStall: -1},
		{FreqDelaySigma: -1},
		{VoltDelaySigma: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestJitterClampsAtTenPercent(t *testing.T) {
	mean := units.Microseconds(100)
	if got := Jitter(mean, units.Microseconds(10), 0); got != mean {
		t.Errorf("zero normal variate should give the mean, got %v", got)
	}
	if got := Jitter(mean, units.Microseconds(50), -10); got != mean/10 {
		t.Errorf("extreme negative variate should clamp to mean/10, got %v", got)
	}
	if got := Jitter(mean, units.Microseconds(10), 2); got != mean+units.Microseconds(20) {
		t.Errorf("positive variate: %v", got)
	}
}

func TestAllPresetsValidate(t *testing.T) {
	for _, chip := range []Chip{IntelI9_9900K(), AMDRyzen7700X(), XeonSilver4208()} {
		if err := chip.Validate(); err != nil {
			t.Errorf("%s: %v", chip.Name, err)
		}
	}
}

func TestPresetDomainKinds(t *testing.T) {
	if IntelI9_9900K().Domains != SingleDomain {
		t.Error("𝒜 must be single-domain")
	}
	if AMDRyzen7700X().Domains != PerCoreFreq {
		t.Error("ℬ must be per-core-frequency")
	}
	c := XeonSilver4208()
	if c.Domains != PerCoreBoth || !c.Transition.VoltFirst {
		t.Error("𝒞 must be per-core-both with volt-first transitions")
	}
}

func TestChipValidateRejectsBadChips(t *testing.T) {
	good := IntelI9_9900K()
	mutations := []func(*Chip){
		func(c *Chip) { c.Cores = 0 },
		func(c *Chip) { c.Vendor.States = nil },
		func(c *Chip) { c.Transition.FreqDelay = -1 },
		func(c *Chip) { c.Power.CoreCeff = 0 },
		func(c *Chip) { c.TDP = 0 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSustainableStateUndervoltingRaisesFrequency(t *testing.T) {
	// The §5.4 effect: a negative offset lowers power, so the package can
	// sustain a frequency at least as high under the same TDP.
	chip := IntelI9_9900K()
	base := chip.SustainableState(chip.Vendor, 0, chip.Cores)
	uv := chip.SustainableState(chip.Vendor, units.MilliVolts(-97), chip.Cores)
	if uv.F < base.F {
		t.Errorf("undervolted sustainable %v < baseline %v", uv.F, base.F)
	}
	if base.F >= chip.Vendor.Top().F {
		t.Errorf("baseline already at top (%v); TDP not constraining, calibration off", base.F)
	}
	if uv.F == base.F {
		t.Error("undervolting made no difference; expected at least one p-state of headroom")
	}
}

func TestSustainableStateFloorsAtMin(t *testing.T) {
	chip := IntelI9_9900K()
	chip.TDP = 1 // impossible budget
	got := chip.SustainableState(chip.Vendor, 0, chip.Cores)
	if got != chip.Vendor.Min() {
		t.Errorf("got %+v, want the minimum state", got)
	}
}

func TestSustainableStateFewerCoresMoreHeadroom(t *testing.T) {
	chip := IntelI9_9900K()
	one := chip.SustainableState(chip.Vendor, 0, 1)
	all := chip.SustainableState(chip.Vendor, 0, chip.Cores)
	if one.F < all.F {
		t.Errorf("1-core sustainable %v < all-core %v", one.F, all.F)
	}
}
