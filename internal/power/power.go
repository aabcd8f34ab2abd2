// Package power implements the CMOS power model of §2.1 of the paper
// (P_dyn = C_L · V_DD² · f_CLK), a leakage term, and a RAPL-style
// quantised energy counter matching how the paper measures package power
// (§5.4).
package power

import (
	"fmt"
	"math"

	"suit/internal/units"
)

// Model is the package-level power model. The simulator treats the package
// as one uncore block plus n identical cores, each switching an effective
// load capacitance CoreCeff at its clock frequency.
type Model struct {
	// CoreCeff is the effective switched capacitance per core in farads:
	// the C_L of P_dyn = C_L · Vᵉ · f, already scaled by average activity.
	CoreCeff float64
	// LeakGV is the leakage conductance in siemens: P_leak = LeakGV · V².
	// Sub-threshold leakage grows faster than linearly with V; a quadratic
	// form keeps the model monotone and captures the curvature that
	// matters for undervolting studies.
	LeakGV float64
	// Uncore is the voltage/frequency-independent package floor (memory
	// controller, fabric, I/O).
	Uncore units.Watt
	// UncorePerCore is the uncore share that scales with active cores:
	// L3 slices and ring stops clock-gate with their core. It keeps
	// relative power savings comparable across core counts.
	UncorePerCore units.Watt
	// VoltExp is the effective voltage exponent e of the dynamic term.
	// Pure CMOS switching gives 2 (§2.1); measured package responses are
	// steeper because short-circuit currents and voltage-dependent
	// leakage ride on top — the paper's own Table 2 (−16 % power for a
	// −97 mV offset with +3.3 % frequency on the i9-9900K) implies an
	// effective exponent near 3.5, which the chip presets use. Zero
	// means the textbook value 2.
	VoltExp float64
}

// voltExp returns the effective exponent (default 2).
func (m Model) voltExp() float64 {
	if m.VoltExp == 0 {
		return 2
	}
	return m.VoltExp
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.CoreCeff <= 0 {
		return fmt.Errorf("power: CoreCeff must be positive, got %g", m.CoreCeff)
	}
	if m.LeakGV < 0 {
		return fmt.Errorf("power: LeakGV must be non-negative, got %g", m.LeakGV)
	}
	if m.Uncore < 0 {
		return fmt.Errorf("power: Uncore must be non-negative, got %v", m.Uncore)
	}
	if m.VoltExp < 0 || (m.VoltExp > 0 && m.VoltExp < 1) {
		return fmt.Errorf("power: VoltExp %v implausible", m.VoltExp)
	}
	if m.UncorePerCore < 0 {
		return fmt.Errorf("power: UncorePerCore must be non-negative, got %v", m.UncorePerCore)
	}
	return nil
}

// Dynamic returns the dynamic power of one core at the given supply voltage
// and clock frequency, scaled by activity ∈ [0, 1] (1 = fully loaded,
// 0 = clock-gated/stalled).
func (m Model) Dynamic(v units.Volt, f units.Hertz, activity float64) units.Watt {
	if activity < 0 {
		activity = 0
	} else if activity > 1 {
		activity = 1
	}
	//lint:allow units the dynamic-power law P = Ceff·Vᵉ·f is the defining cross-unit relation of this model
	return units.Watt(m.CoreCeff * math.Pow(float64(v), m.voltExp()) * float64(f) * activity)
}

// Leakage returns the static power of one core at the given voltage.
// Leakage flows whether or not the core is clocked.
func (m Model) Leakage(v units.Volt) units.Watt {
	//lint:allow units the leakage law P = G·V² is the defining cross-unit relation of this model
	return units.Watt(m.LeakGV * float64(v) * float64(v))
}

// Core returns the total power of one core.
func (m Model) Core(v units.Volt, f units.Hertz, activity float64) units.Watt {
	return m.Dynamic(v, f, activity) + m.Leakage(v)
}

// CoreState is one core's operating point for package aggregation.
type CoreState struct {
	V        units.Volt
	F        units.Hertz
	Activity float64
}

// Package returns the whole-package power for the given per-core states.
func (m Model) Package(cores []CoreState) units.Watt {
	p := m.Uncore
	for _, c := range cores {
		p += m.Core(c.V, c.F, c.Activity) + m.UncorePerCore
	}
	return p
}

// RAPL models Intel's Running Average Power Limit energy counter
// (MSR_PKG_ENERGY_STATUS): a 32-bit cumulative counter in fixed energy
// units (default 61 µJ = 2⁻¹⁴ J) that wraps around. The paper reads RAPL
// for all power measurements; modelling the quantisation and wrap keeps
// the measurement path faithful.
type RAPL struct {
	unit    units.Joule
	residue units.Joule // energy deposited but below one unit
	counter uint32
}

// DefaultRAPLUnit is 2⁻¹⁴ J, the common Intel energy-status unit.
const DefaultRAPLUnit = units.Joule(1.0 / 16384)

// NewRAPL returns a RAPL counter with the given unit (DefaultRAPLUnit if 0).
func NewRAPL(unit units.Joule) *RAPL {
	if unit <= 0 {
		unit = DefaultRAPLUnit
	}
	return &RAPL{unit: unit}
}

// Deposit adds energy to the meter.
func (r *RAPL) Deposit(e units.Joule) {
	if e < 0 {
		panic(fmt.Sprintf("power: negative energy deposit %v", e)) //lint:allow allocfree panic formatting on a negative-energy invariant; never taken on the steady path
	}
	r.residue += e
	ticks := uint64(float64(r.residue) / float64(r.unit))
	if ticks > 0 {
		r.residue -= units.Joule(float64(ticks) * float64(r.unit))
		r.counter += uint32(ticks) // wraps like the hardware counter
	}
}

// Counter returns the current 32-bit counter value.
func (r *RAPL) Counter() uint32 { return r.counter }
