package guardband

import (
	"math"
	"testing"
	"testing/quick"

	"suit/internal/dvfs"
	"suit/internal/isa"
	"suit/internal/units"
)

func mv(v units.Volt) float64 { return v.MilliVolts() }

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	mutations := []func(*Model){
		func(m *Model) { m.BackgroundVariation = 0 },
		func(m *Model) { m.SpendableAgingFraction = -0.1 },
		func(m *Model) { m.SpendableAgingFraction = 1.1 },
		func(m *Model) { m.AgingGuardband = -1 },
		func(m *Model) { m.TempGuardband = -1 },
		func(m *Model) { m.IMULHardeningBonus = -1 },
		func(m *Model) { m.VariationMargin[isa.OpVOR] = 0 },
		func(m *Model) { m.VariationMargin[isa.OpVOR] = m.BackgroundVariation },
	}
	for i, mut := range mutations {
		m := Default()
		mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestMarginOrderingFollowsTable1(t *testing.T) {
	// Higher fault count → smaller margin (faults at shallower undervolt).
	m := Default()
	rows := isa.Table1()
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		ma := m.Margin(a.Op, false)
		mb := m.Margin(b.Op, false)
		if a.FaultCount > b.FaultCount && ma >= mb {
			t.Errorf("%s (faults %d, margin %v) should have smaller margin than %s (faults %d, margin %v)",
				a.Name, a.FaultCount, ma, b.Name, b.FaultCount, mb)
		}
	}
}

func TestBackgroundMarginIs70mV(t *testing.T) {
	m := Default()
	if got := m.Margin(isa.OpALU, false); math.Abs(mv(got)-70) > 1e-9 {
		t.Errorf("background margin = %v, want 70 mV", got)
	}
}

func TestIMULHardening(t *testing.T) {
	m := Default()
	plain := m.Margin(isa.OpIMUL, false)
	hard := m.Margin(isa.OpIMUL, true)
	if hard-plain != m.IMULHardeningBonus {
		t.Errorf("hardening bonus = %v, want %v", hard-plain, m.IMULHardeningBonus)
	}
	// Hardened IMUL must be safe at the deepest SUIT offset (−97 mV).
	if m.Faults(isa.OpIMUL, units.MilliVolts(-97), true) {
		t.Error("hardened IMUL faults at −97 mV; SUIT design broken")
	}
	// Unhardened IMUL faults early — it is the most fault-prone opcode:
	// 12 mV certified variation + 27.4 mV residual aging headroom.
	if !m.Faults(isa.OpIMUL, units.MilliVolts(-45), false) {
		t.Error("unhardened IMUL survives −45 mV; Table 1 says it faults first")
	}
	if m.Faults(isa.OpIMUL, units.MilliVolts(-35), false) {
		t.Error("unhardened IMUL faults within its physical margin")
	}
}

func TestFaultsThreshold(t *testing.T) {
	m := Default()
	pm := m.PhysicalMargin(isa.OpVOR, false)
	if got := pm - m.Margin(isa.OpVOR, false); math.Abs(mv(got)-0.2*137) > 1e-9 {
		t.Errorf("physical margin headroom = %v, want 20%% of 137 mV", got)
	}
	if m.Faults(isa.OpVOR, -pm, false) {
		t.Error("VOR faults at exactly its physical margin")
	}
	if !m.Faults(isa.OpVOR, -(pm + units.MilliVolts(1)), false) {
		t.Error("VOR survives below its physical margin")
	}
	// Background instructions survive the full −97 mV design point.
	if m.Faults(isa.OpALU, units.MilliVolts(-97), false) {
		t.Error("background instruction faults at the SUIT design point")
	}
	if !m.Faults(isa.OpALU, units.MilliVolts(-99), false) {
		t.Error("background instruction survives below its margin")
	}
}

func TestEfficientOffsetMatchesPaper(t *testing.T) {
	m := Default()
	// Full faultable set disabled, hardened IMUL: −70 mV, or −97 mV
	// when spending 20 % of the 137 mV aging guardband (§3.1).
	got70 := m.EfficientOffset(isa.FaultableMask, true, false)
	if math.Abs(mv(got70)+70) > 0.5 {
		t.Errorf("offset without aging = %v, want −70 mV", got70)
	}
	got97 := m.EfficientOffset(isa.FaultableMask, true, true)
	if math.Abs(mv(got97)+97.4) > 0.5 {
		t.Errorf("offset with aging = %v, want ≈−97 mV", got97)
	}
}

func TestEfficientOffsetWithoutDisablingIsShallow(t *testing.T) {
	// Nothing disabled, stock IMUL: the curve is limited by IMUL's
	// margin — this is "today's CPU".
	m := Default()
	got := m.EfficientOffset(0, false, false)
	if math.Abs(mv(got)+12) > 0.5 {
		t.Errorf("stock offset = %v, want −12 mV (IMUL-limited)", got)
	}
	// Disabling everything but leaving IMUL unhardened still pins the
	// curve to IMUL's margin.
	got2 := m.EfficientOffset(isa.FaultableMask, false, false)
	if math.Abs(mv(got2)+12) > 0.5 {
		t.Errorf("unhardened offset = %v, want −12 mV", got2)
	}
}

func TestEfficientOffsetNeverFaultsEnabledInstructions(t *testing.T) {
	m := Default()
	prop := func(rawMask uint32, hardened bool) bool {
		mask := isa.DisableMask(rawMask) & isa.FaultableMask
		off := m.EfficientOffset(mask, hardened, false)
		for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
			if op == isa.OpNop || mask.Has(op) {
				continue
			}
			if m.Faults(op, off+units.MilliVolts(0.01), hardened) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAgingDegradation(t *testing.T) {
	// 15 % after 10 years at reference temperature.
	if got := AgingDegradation(10, 105); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("10y@105°C = %v, want 0.15", got)
	}
	if AgingDegradation(0, 105) != 0 {
		t.Error("zero years must give zero degradation")
	}
	if AgingDegradation(-3, 105) != 0 {
		t.Error("negative years must give zero degradation")
	}
	// Monotone in time, accelerating with temperature.
	if AgingDegradation(5, 105) >= AgingDegradation(10, 105) {
		t.Error("degradation not monotone in time")
	}
	if AgingDegradation(10, 50) >= AgingDegradation(10, 105) {
		t.Error("cooler part must age slower (§3.1)")
	}
	// Sub-linear in time: 5 years costs much more than half of 10 years'
	// wear — the motivation for data centers retiring CPUs early is that
	// *late* wear is cheap, early wear is front-loaded.
	if AgingDegradation(5, 105) <= 0.075 {
		t.Error("BTI power law should front-load degradation")
	}
	// Never exceeds the hot worst case.
	if AgingDegradation(10, 200) > 0.15 {
		t.Error("temperature factor must cap at the worst case")
	}
}

func TestAgingGuardbandForI9(t *testing.T) {
	// §5.6: 5 GHz · 15 % · 183 mV/GHz = 137 mV (12 % of 1.174 V).
	c := dvfs.IntelI9_9900K().Vendor
	got := AgingGuardbandFor(c)
	if math.Abs(mv(got)-137.25) > 1 {
		t.Errorf("aging guardband = %v, want ≈137 mV", got)
	}
	frac := float64(got) / float64(c.Top().V)
	if math.Abs(frac-0.12) > 0.005 {
		t.Errorf("guardband fraction = %v, want ≈12%%", frac)
	}
}

func TestTable3AndTempInterpolation(t *testing.T) {
	p := Table3()
	if p[0].Temp != 50 || math.Abs(mv(p[0].MaxOffset)+90) > 1e-9 {
		t.Errorf("Table 3 row 0 = %+v", p[0])
	}
	if p[1].Temp != 88 || math.Abs(mv(p[1].MaxOffset)+55) > 1e-9 {
		t.Errorf("Table 3 row 1 = %+v", p[1])
	}
	// Exact at the measured points.
	if got := MaxUndervoltAt(50); math.Abs(mv(got)+90) > 1e-9 {
		t.Errorf("MaxUndervoltAt(50) = %v", got)
	}
	if got := MaxUndervoltAt(88); math.Abs(mv(got)+55) > 1e-9 {
		t.Errorf("MaxUndervoltAt(88) = %v", got)
	}
	// Monotone: hotter → shallower (less negative) max undervolt.
	if MaxUndervoltAt(60) >= MaxUndervoltAt(80) {
		t.Error("undervolt headroom must shrink with temperature")
	}
	// §5.7: the 50→88 °C guardband is 35 mV.
	if got := TempGuardbandFor(50, 88); math.Abs(mv(got)+35) > 1e-9 {
		t.Errorf("temp guardband = %v, want −35 mV of headroom change", got)
	}
}

func TestHardenedIMULCurveBelowVendor(t *testing.T) {
	// Fig 13: the modified-IMUL curve sits below the vendor curve, with
	// the largest gap at the top of the curve (≈220 mV at 5 GHz in the
	// best case per §6.9) and a negligible gap at the flat bottom.
	vendor := dvfs.IntelI9_9900K().Vendor
	mod := HardenedIMULCurve(vendor)
	if err := mod.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(mod.States) != len(vendor.States) {
		t.Fatal("state count changed")
	}
	var gaps []float64
	for i := range mod.States {
		gap := float64(vendor.States[i].V - mod.States[i].V)
		if gap < 0 {
			t.Errorf("modified curve above vendor at state %d", i)
		}
		gaps = append(gaps, gap)
	}
	topGap := gaps[len(gaps)-1] * 1000
	if topGap < 150 || topGap > 250 {
		t.Errorf("top-of-curve gap = %.0f mV, want ≈220 mV (§6.9)", topGap)
	}
	if gaps[0]*1000 > 50 {
		t.Errorf("bottom-of-curve gap = %.0f mV, should be small (flat region)", gaps[0]*1000)
	}
}

func TestNoVariationModel(t *testing.T) {
	// §3.1: CPUs without instruction voltage variation (Intel 6th gen in
	// Kogler et al.) give SUIT nothing beyond the spendable aging slice.
	m := Default()
	m.VariationMargin = map[isa.Opcode]units.Volt{}
	m.IMULHardeningBonus = 0
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every instruction shares the background margin.
	for _, op := range []isa.Opcode{isa.OpIMUL, isa.OpAESENC, isa.OpVOR, isa.OpALU} {
		if got := m.Margin(op, true); got != m.BackgroundVariation {
			t.Errorf("%v margin = %v, want background %v", op, got, m.BackgroundVariation)
		}
	}
	// The variation-only offset equals the background margin — no gain
	// from disabling anything.
	withDisable := m.EfficientOffset(isa.FaultableMask, true, false)
	withoutDisable := m.EfficientOffset(0, false, false)
	if withDisable != withoutDisable {
		t.Errorf("disabling changed the offset on a no-variation part: %v vs %v",
			withDisable, withoutDisable)
	}
	// Nothing in the faultable set actually faults at that offset.
	for _, op := range isa.Faultable() {
		if m.Faults(op, withDisable, false) {
			t.Errorf("%v faults on a no-variation part at %v", op, withDisable)
		}
	}
}
