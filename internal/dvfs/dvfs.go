// Package dvfs models dynamic voltage and frequency scaling as SUIT needs
// it: vendor-defined DVFS curves (p-state tables, §2.4), the pair of
// conservative/efficient curves SUIT introduces (§3.2), frequency and
// voltage domains (per-chip vs per-core, §6.2), and the transition-delay
// behaviour the paper measures on real CPUs (§5.2, Figs 8–11).
package dvfs

import (
	"errors"
	"fmt"
	"sort"

	"suit/internal/power"
	"suit/internal/units"
)

// PState is one vendor-defined frequency/voltage pair.
type PState struct {
	// Ratio is the bus-clock multiplier (×100 MHz) written to PERF_CTL.
	Ratio uint8
	// F is the core clock frequency.
	F units.Hertz
	// V is the guaranteed-stable supply voltage at F, including the
	// guardband (§2.2).
	V units.Volt
}

// Curve is a DVFS curve: p-states in strictly increasing frequency order
// with non-decreasing voltage.
type Curve struct {
	Name   string
	States []PState
}

// Validate checks the curve invariants.
func (c Curve) Validate() error {
	if len(c.States) == 0 {
		return errors.New("dvfs: empty curve")
	}
	for i, s := range c.States {
		if s.F <= 0 || s.V <= 0 {
			return fmt.Errorf("dvfs: %s state %d has non-positive F or V", c.Name, i)
		}
		if i > 0 {
			if s.F <= c.States[i-1].F {
				return fmt.Errorf("dvfs: %s not strictly increasing in frequency at %d", c.Name, i)
			}
			if s.V < c.States[i-1].V {
				return fmt.Errorf("dvfs: %s voltage decreases at %d", c.Name, i)
			}
		}
	}
	return nil
}

// Top returns the highest-frequency p-state.
func (c Curve) Top() PState { return c.States[len(c.States)-1] }

// Min returns the lowest-frequency p-state.
func (c Curve) Min() PState { return c.States[0] }

// VoltageAt returns the stable voltage for frequency f, linearly
// interpolated between p-states. Frequencies outside the table clamp to
// the end states (extrapolation would leave the vendor-validated region).
func (c Curve) VoltageAt(f units.Hertz) units.Volt {
	ss := c.States
	if f <= ss[0].F {
		return ss[0].V
	}
	if f >= ss[len(ss)-1].F {
		return ss[len(ss)-1].V
	}
	// Binary search for ss[i-1].F < f <= ss[i].F.
	i := sort.Search(len(ss), func(i int) bool { return ss[i].F >= f }) //lint:allow allocfree non-escaping predicate closure; sort.Search does not retain it, so it stays on the stack
	lo, hi := ss[i-1], ss[i]
	t := float64(f-lo.F) / float64(hi.F-lo.F)
	return lo.V + units.Volt(t)*(hi.V-lo.V)
}

// FrequencyAt returns the highest frequency the curve certifies stable at
// supply voltage v, inverting the VoltageAt interpolation. Voltages below
// the curve floor return the minimum frequency; voltages above the top
// return the maximum (the curve does not certify beyond its table).
func (c Curve) FrequencyAt(v units.Volt) units.Hertz {
	ss := c.States
	if v <= ss[0].V {
		return ss[0].F
	}
	if v >= ss[len(ss)-1].V {
		return ss[len(ss)-1].F
	}
	// Find the segment with ss[i-1].V <= v < ss[i].V. Voltages are
	// non-decreasing but may repeat across states (flat region): take
	// the highest frequency at that voltage.
	i := sort.Search(len(ss), func(i int) bool { return ss[i].V > v })
	lo, hi := ss[i-1], ss[i]
	if hi.V == lo.V {
		return hi.F
	}
	t := float64(v-lo.V) / float64(hi.V-lo.V)
	return lo.F + units.Hertz(t)*(hi.F-lo.F)
}

// StateAt returns the p-state with the given ratio.
func (c Curve) StateAt(ratio uint8) (PState, bool) {
	for _, s := range c.States {
		if s.Ratio == ratio {
			return s, true
		}
	}
	return PState{}, false
}

// Gradient returns the voltage/frequency slope between the two highest
// p-states in volts per hertz. §5.6 uses the 4→5 GHz gradient
// (183 mV/GHz on the i9-9900K) to size the aging guardband.
func (c Curve) Gradient() float64 {
	n := len(c.States)
	if n < 2 {
		return 0
	}
	a, b := c.States[n-2], c.States[n-1]
	return float64(b.V-a.V) / float64(b.F-a.F)
}

// DomainKind describes how cores share frequency and voltage planes
// (§6.2's CPU models 𝒜, ℬ, 𝒞).
type DomainKind uint8

const (
	// SingleDomain: one frequency and one voltage plane for the whole
	// package (CPU 𝒜, i9-9900K). A curve switch affects every core.
	SingleDomain DomainKind = iota
	// PerCoreFreq: per-core frequency domains, shared voltage plane
	// (CPU ℬ, Ryzen 7 7700X). Only frequency switching is core-local.
	PerCoreFreq
	// PerCoreBoth: per-core frequency and voltage domains (CPU 𝒞,
	// Xeon Silver 4208 with PCPS).
	PerCoreBoth
)

// String implements fmt.Stringer.
func (k DomainKind) String() string {
	switch k {
	case SingleDomain:
		return "single-domain"
	case PerCoreFreq:
		return "per-core-frequency"
	case PerCoreBoth:
		return "per-core-frequency+voltage"
	default:
		return fmt.Sprintf("DomainKind(%d)", uint8(k))
	}
}

// TransitionModel captures the measured p-state change behaviour of §5.2.
type TransitionModel struct {
	// FreqDelay is the mean time from writing PERF_CTL to the new
	// frequency being active.
	FreqDelay units.Second
	// FreqDelaySigma is the standard deviation of FreqDelay.
	FreqDelaySigma units.Second
	// FreqStall is how long cores in the domain stall at the end of a
	// frequency change (the grey area of Fig 9; zero on AMD, Fig 10).
	FreqStall units.Second
	// VoltDelay is the mean time for a voltage change to settle.
	VoltDelay units.Second
	// VoltDelaySigma is the standard deviation of VoltDelay.
	VoltDelaySigma units.Second
	// VoltFirst: the domain serialises p-state changes as voltage change
	// followed by frequency change regardless of direction (Xeon PCPS
	// behaviour, Fig 11).
	VoltFirst bool
}

// Validate checks the model.
func (m TransitionModel) Validate() error {
	if m.FreqDelay < 0 || m.VoltDelay < 0 || m.FreqStall < 0 {
		return errors.New("dvfs: negative transition delay")
	}
	if m.FreqDelaySigma < 0 || m.VoltDelaySigma < 0 {
		return errors.New("dvfs: negative transition sigma")
	}
	return nil
}

// Jitter draws a delay around mean with the given sigma using norm, a
// standard normal variate supplied by the caller (keeps the package free
// of RNG policy). Results are clamped to ≥ 10 % of the mean.
func Jitter(mean, sigma units.Second, norm float64) units.Second {
	d := mean + units.Second(norm)*sigma
	if min := mean / 10; d < min {
		d = min
	}
	return d
}

// Chip bundles everything the simulator needs to instantiate a CPU model.
type Chip struct {
	Name       string
	Cores      int
	Domains    DomainKind
	Transition TransitionModel
	Vendor     Curve       // the conservative curve as shipped
	Power      power.Model // package power model
	TDP        units.Watt  // sustained package power limit
	BusClock   units.Hertz // ratio quantum (100 MHz on Intel)
	// ExceptionDelay is the measured #DO entry+exit cost on this system
	// (§5.3), EmulCallDelay the end-to-end emulation-call cost (two
	// kernel transitions).
	ExceptionDelay units.Second
	EmulCallDelay  units.Second
}

// Validate checks the chip description.
func (c Chip) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("dvfs: chip %q needs at least one core", c.Name)
	}
	if err := c.Vendor.Validate(); err != nil {
		return err
	}
	if err := c.Transition.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if c.TDP <= 0 {
		return fmt.Errorf("dvfs: chip %q needs a positive TDP", c.Name)
	}
	if c.ExceptionDelay < 0 || c.EmulCallDelay < 0 {
		return fmt.Errorf("dvfs: chip %q has negative trap delays", c.Name)
	}
	return nil
}

// SustainableState returns the highest p-state on the curve (with voltages
// shifted by offset) at which nActive fully-loaded cores stay within the
// chip's TDP. This is the mechanism behind §5.4: undervolting lowers power,
// which lets the package sustain higher frequencies under the same TDP.
// If even the lowest p-state exceeds the TDP, the lowest state is returned.
//
// This is a *performance* governor: it always cashes TDP headroom into
// frequency, even across a p-state bin whose voltage step costs more power
// than the frequency gains.
func (c Chip) SustainableState(curve Curve, offset units.Volt, nActive int) PState {
	best := curve.Min()
	for _, s := range curve.States {
		if c.packagePower(s, offset, nActive) <= c.TDP {
			best = s
		}
	}
	return best
}

// packagePower is the all-active package power at state s shifted by
// offset.
func (c Chip) packagePower(s PState, offset units.Volt, nActive int) units.Watt {
	cores := make([]power.CoreState, nActive)
	for i := range cores {
		cores[i] = power.CoreState{V: s.V + offset, F: s.F, Activity: 1}
	}
	return c.Power.Package(cores)
}
