package cpu

import "math"

// advanceTo stands in for the simulator's per-event power accounting.
func advanceTo(v, e float64) float64 {
	return math.Pow(v, e) // want `math.Pow on a per-event path`
}

// refreshVoltCache is the one legitimate slow-path site: it runs only
// when a ramp settles, not per event.
func refreshVoltCache(v, e float64) float64 {
	//lint:allow hotpath runs once per ramp settle, not per event
	return math.Pow(v, e)
}

// sameLine suppression works too.
func sameLine(v, e float64) float64 {
	return math.Pow(v, e) //lint:allow hotpath cold configuration path
}

// powMethod is a method named Pow on a local type; only math.Pow is hot.
type calc struct{}

func (calc) Pow(v, e float64) float64 { return v * e }

func uses(c calc) float64 { return c.Pow(2, 3) }

// The pow-kernel helpers are sanctioned: their math.Pow calls are the
// deliberate bit-identical fallback ladder, not a hot-path leak.
type powKernel struct{ exp float64 }

func (k *powKernel) eval(x float64) float64 {
	return math.Pow(x, k.exp) // sanctioned receiver: no diagnostic
}

func (k powKernel) evalValue(x float64) float64 {
	return math.Pow(x, k.exp) // sanctioned value receiver: no diagnostic
}

func newPowKernel(exp float64) powKernel {
	if math.Pow(2, exp) > 1 { // sanctioned constructor: no diagnostic
		return powKernel{exp: exp}
	}
	return powKernel{}
}

// A lookalike type is NOT sanctioned: sanctioning is by exact receiver
// base name.
type powKernelView struct{ k powKernel }

func (v *powKernelView) eval(x float64) float64 {
	return math.Pow(x, v.k.exp) // want `math.Pow on a per-event path`
}
