// Package units defines the physical quantities shared across the SUIT
// simulator: voltage, frequency, power, energy and time. All are float64
// base-SI named types; helper constructors and formatters keep call sites
// readable (e.g. units.MilliVolts(-97), units.GHz(4.7)).
package units

import (
	"fmt"
)

// Volt is an electric potential in volts.
type Volt float64

// MilliVolts constructs a Volt from millivolts.
func MilliVolts(mv float64) Volt { return Volt(mv / 1000) }

// MilliVolts reports the value in millivolts.
func (v Volt) MilliVolts() float64 { return float64(v) * 1000 }

// String implements fmt.Stringer.
func (v Volt) String() string { return fmt.Sprintf("%.0f mV", v.MilliVolts()) }

// Hertz is a frequency in hertz.
type Hertz float64

// GHz constructs a Hertz from gigahertz.
func GHz(g float64) Hertz { return Hertz(g * 1e9) }

// MHz constructs a Hertz from megahertz.
func MHz(m float64) Hertz { return Hertz(m * 1e6) }

// GHz reports the value in gigahertz.
func (f Hertz) GHz() float64 { return float64(f) / 1e9 }

// String implements fmt.Stringer.
func (f Hertz) String() string { return fmt.Sprintf("%.2f GHz", f.GHz()) }

// Watt is a power in watts.
type Watt float64

// String implements fmt.Stringer.
func (w Watt) String() string { return fmt.Sprintf("%.2f W", float64(w)) }

// Joule is an energy in joules.
type Joule float64

// String implements fmt.Stringer.
func (j Joule) String() string { return fmt.Sprintf("%.3f J", float64(j)) }

// Second is a duration in seconds. The simulator uses float64 seconds
// rather than time.Duration because simulated spans range from tens of
// nanoseconds (exception entry) to minutes (benchmark runs) and arithmetic
// with rates (cycles = seconds × hertz) is pervasive.
type Second float64

// Microseconds constructs a Second from microseconds.
func Microseconds(us float64) Second { return Second(us * 1e-6) }

// Milliseconds constructs a Second from milliseconds.
func Milliseconds(ms float64) Second { return Second(ms * 1e-3) }

// Microseconds reports the value in microseconds.
func (s Second) Microseconds() float64 { return float64(s) * 1e6 }

// String implements fmt.Stringer.
func (s Second) String() string {
	switch abs := max(float64(s), -float64(s)); {
	case abs >= 1:
		return fmt.Sprintf("%.3f s", float64(s))
	case abs >= 1e-3:
		return fmt.Sprintf("%.3f ms", float64(s)*1e3)
	case abs >= 1e-6:
		return fmt.Sprintf("%.3f µs", float64(s)*1e6)
	default:
		return fmt.Sprintf("%.1f ns", float64(s)*1e9)
	}
}

// Celsius is a temperature in degrees Celsius.
type Celsius float64

// String implements fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%.1f °C", float64(c)) }

// Energy returns power × time.
func Energy(p Watt, dt Second) Joule { return Joule(float64(p) * float64(dt)) }

// Power returns energy ÷ time.
func Power(e Joule, dt Second) Watt { return Watt(float64(e) / float64(dt)) }

// TimeFor returns the duration of n cycles at frequency f.
func TimeFor(n float64, f Hertz) Second { return Second(n / float64(f)) }
