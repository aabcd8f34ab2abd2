// Package guardband models the voltage-margin physics SUIT builds on:
// the per-instruction variation in required voltage (§2.3, Table 1), the
// aging guardband of FinFET circuits (§2.2, §5.6), the temperature
// guardband (§5.7), and the vendor procedure that turns those margins into
// the efficient DVFS curve offset (§3.1: −70 mV from instruction variation
// alone, −97 mV when additionally spending 20 % of the aging guardband).
package guardband

import (
	"fmt"
	"math"

	"suit/internal/dvfs"
	"suit/internal/isa"
	"suit/internal/units"
)

// Model is the chip's voltage-margin model. All margins are voltages below
// the conservative DVFS curve at which the subject starts to fault: an
// instruction with margin m executes correctly at curve offsets o with
// |o| < m and produces silently wrong results at deeper undervolts.
type Model struct {
	// VariationMargin is the per-instruction margin from the instruction
	// voltage variation, for the instructions with observed faults
	// (Table 1). Instructions faulting more readily have smaller margins.
	VariationMargin map[isa.Opcode]units.Volt
	// BackgroundVariation is the margin of every other instruction: the
	// average instruction-voltage variation of 70 mV (§3.1).
	BackgroundVariation units.Volt
	// AgingGuardband is the full worst-case aging guardband (137 mV on
	// the i9-9900K, §5.6). A fraction of it can be spent on young,
	// temperature-controlled parts.
	AgingGuardband units.Volt
	// SpendableAgingFraction is the share of the aging guardband SUIT is
	// willing to consume (0.2 in the paper's evaluation).
	SpendableAgingFraction float64
	// TempGuardband is the voltage the guardband reserves for the
	// worst-case core temperature (35 mV ≈ 3.5 %, §5.7).
	TempGuardband units.Volt
	// IMULHardeningBonus is the extra margin the +1-cycle IMUL gains:
	// 33 % added timing slack corresponds to up to 220 mV at 5 GHz on the
	// Fig 13 curve (§6.9); 150 mV is a conservative mid-curve value.
	IMULHardeningBonus units.Volt
}

// Default returns the model seeded from the paper's measurements. The
// faultable-set margins are spread over (0, 70) mV in inverse Table 1
// fault-count order — instructions observed faulting more often fault at
// shallower undervolts ("the rarely faulting instructions occur on average
// at lower voltages", Table 1 caption).
func Default() *Model {
	return &Model{
		VariationMargin: map[isa.Opcode]units.Volt{
			isa.OpIMUL:       units.MilliVolts(12),
			isa.OpVOR:        units.MilliVolts(22),
			isa.OpAESENC:     units.MilliVolts(27),
			isa.OpVXOR:       units.MilliVolts(28),
			isa.OpVANDN:      units.MilliVolts(35),
			isa.OpVAND:       units.MilliVolts(38),
			isa.OpVSQRTPD:    units.MilliVolts(43),
			isa.OpVPCLMULQDQ: units.MilliVolts(50),
			isa.OpVPSRAD:     units.MilliVolts(56),
			isa.OpVPCMP:      units.MilliVolts(61),
			isa.OpVPMAX:      units.MilliVolts(64),
			isa.OpVPADDQ:     units.MilliVolts(68),
		},
		BackgroundVariation:    units.MilliVolts(70),
		AgingGuardband:         units.MilliVolts(137),
		SpendableAgingFraction: 0.2,
		TempGuardband:          units.MilliVolts(35),
		IMULHardeningBonus:     units.MilliVolts(150),
	}
}

// Validate checks the model.
func (m *Model) Validate() error {
	if m.BackgroundVariation <= 0 {
		return fmt.Errorf("guardband: background variation must be positive, got %v", m.BackgroundVariation)
	}
	if m.SpendableAgingFraction < 0 || m.SpendableAgingFraction > 1 {
		return fmt.Errorf("guardband: spendable aging fraction %v outside [0,1]", m.SpendableAgingFraction)
	}
	if m.AgingGuardband < 0 || m.TempGuardband < 0 || m.IMULHardeningBonus < 0 {
		return fmt.Errorf("guardband: negative guardband component")
	}
	for op, v := range m.VariationMargin {
		if v <= 0 {
			return fmt.Errorf("guardband: %v has non-positive margin %v", op, v)
		}
		if op != isa.OpIMUL && v >= m.BackgroundVariation {
			return fmt.Errorf("guardband: %v margin %v not below background variation %v — it would not be in the faultable set", op, v, m.BackgroundVariation)
		}
	}
	return nil
}

// Margin returns op's *certified* margin: how far below the conservative
// curve the vendor guarantees correctness over the whole service life —
// the margins the curve-determination procedure (EfficientOffset) reasons
// with. hardenedIMUL selects the SUIT CPU with the 4-cycle IMUL.
func (m *Model) Margin(op isa.Opcode, hardenedIMUL bool) units.Volt {
	margin, ok := m.VariationMargin[op]
	if !ok {
		margin = m.BackgroundVariation
	}
	if op == isa.OpIMUL && hardenedIMUL {
		margin += m.IMULHardeningBonus
	}
	return margin
}

// PhysicalMargin returns op's margin on the worst chip SUIT must still be
// safe on: a part near the end of its planned service life, which — per
// the §3.1 argument about limited data-center lifetimes and controlled
// temperatures — retains at least the spendable fraction of the aging
// guardband as real headroom on top of the certified margin.
func (m *Model) PhysicalMargin(op isa.Opcode, hardenedIMUL bool) units.Volt {
	return m.Margin(op, hardenedIMUL) + units.Volt(m.SpendableAgingFraction)*m.AgingGuardband
}

// Faults reports whether op computes incorrectly at the given offset below
// the conservative curve (offset is negative for undervolts), on the
// worst in-service chip. Executing exactly at the margin is still safe;
// any deeper faults.
func (m *Model) Faults(op isa.Opcode, offset units.Volt, hardenedIMUL bool) bool {
	return -offset > m.PhysicalMargin(op, hardenedIMUL)
}

// EfficientOffset runs the vendor curve-determination procedure (§3.5):
// with the disabled set excluded, the efficient curve can sit at the
// smallest margin of any remaining instruction; spending the allowed aging
// fraction deepens it further. The returned offset is negative.
// SUIT's evaluation uses disabled = the full faultable set with a hardened
// IMUL, which yields −70 mV (−97 mV with spendAging).
func (m *Model) EfficientOffset(disabled isa.DisableMask, hardenedIMUL, spendAging bool) units.Volt {
	minMargin := m.BackgroundVariation
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if op == isa.OpNop || disabled.Has(op) {
			continue
		}
		if mg := m.Margin(op, hardenedIMUL); mg < minMargin {
			minMargin = mg
		}
	}
	off := -minMargin
	if spendAging {
		off -= units.Volt(m.SpendableAgingFraction) * m.AgingGuardband
	}
	return off
}

// AgingDegradation returns the fractional propagation-delay increase after
// the given years of continuous operation at the given core temperature.
// Sub-20 nm FinFETs degrade ≈15 % over 10 years at >100 °C (§5.6); BTI
// degradation follows a power law in time (≈t^0.25) and accelerates
// exponentially with temperature.
func AgingDegradation(years float64, temp units.Celsius) float64 {
	if years <= 0 {
		return 0
	}
	const (
		refYears = 10.0
		refTemp  = 105.0 // °C reference for the 15 % figure
		full     = 0.15
	)
	timeFactor := math.Pow(years/refYears, 0.25)
	tempFactor := math.Exp((float64(temp) - refTemp) / 40)
	if tempFactor > 1 {
		tempFactor = 1 // the 15 % figure is already the hot worst case
	}
	return full * timeFactor * tempFactor
}

// AgingGuardbandFor computes the aging guardband a vendor must build into
// a DVFS curve, following §5.6's method: the voltage at the top frequency
// must support a 15 % higher frequency at age zero, priced with the curve's
// top-end voltage/frequency gradient. For the i9-9900K curve this yields
// 5 GHz · 15 % · 183 mV/GHz = 137 mV.
func AgingGuardbandFor(c dvfs.Curve) units.Volt {
	top := c.Top()
	//lint:allow units the §5.6 guardband prices frequency headroom into voltage via the curve gradient (V/Hz)
	return units.Volt(float64(top.F) * 0.15 * c.Gradient())
}

// TempPoint is one row of Table 3: the maximum safe undervolting offset
// measured at a core temperature.
type TempPoint struct {
	Temp      units.Celsius
	MaxOffset units.Volt // negative
}

// Table3 returns the paper's measured points on the i9-9900K.
func Table3() [2]TempPoint {
	return [2]TempPoint{
		{Temp: units.Celsius(50), MaxOffset: units.MilliVolts(-90)},
		{Temp: units.Celsius(88), MaxOffset: units.MilliVolts(-55)},
	}
}

// MaxUndervoltAt interpolates/extrapolates the maximum safe undervolt at a
// core temperature from the Table 3 measurements: higher temperature means
// less undervolting headroom.
func MaxUndervoltAt(temp units.Celsius) units.Volt {
	p := Table3()
	slope := float64(p[1].MaxOffset-p[0].MaxOffset) / float64(p[1].Temp-p[0].Temp)
	//lint:allow units the Table 3 interpolation multiplies a measured V/°C slope by a temperature delta
	return p[0].MaxOffset + units.Volt(slope*float64(temp-p[0].Temp))
}

// TempGuardbandFor returns the voltage difference in undervolting headroom
// between two core temperatures (35 mV between 50 °C and 88 °C in §5.7).
func TempGuardbandFor(cool, hot units.Celsius) units.Volt {
	return MaxUndervoltAt(cool) - MaxUndervoltAt(hot)
}

// HardenedIMULCurve returns the safe voltage curve for the 4-cycle IMUL:
// the Fig 13 "Modified IMUL" plot. Adding one pipeline stage to a 3-stage
// instruction adds 33 % timing slack, which converts to voltage headroom
// via the local voltage/frequency gradient of the vendor curve: the safe
// voltage at frequency f is the vendor voltage at f/1.33.
func HardenedIMULCurve(vendor dvfs.Curve) dvfs.Curve {
	out := dvfs.Curve{Name: vendor.Name + "+modified-IMUL"}
	for _, s := range vendor.States {
		equiv := units.Hertz(float64(s.F) / (4.0 / 3.0))
		v := vendor.VoltageAt(equiv)
		out.States = append(out.States, dvfs.PState{Ratio: s.Ratio, F: s.F, V: v})
	}
	return out
}
