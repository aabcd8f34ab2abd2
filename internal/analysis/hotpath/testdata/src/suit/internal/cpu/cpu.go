package cpu

import "math"

// advanceTo stands in for the simulator's per-event power accounting.
func advanceTo(v, e float64) float64 {
	return math.Pow(v, e) // want `math.Pow on a per-event path`
}

// rampMean is the one legitimate site: it runs when an energy epoch
// closes, not per event.
func rampMean(v, e float64) float64 {
	//lint:allow hotpath runs once per epoch, not per arrival
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

// No receiver or function name is exempt: a helper wrapping math.Pow is
// flagged like any other call site.
type powWrapper struct{ exp float64 }

func (w *powWrapper) eval(x float64) float64 {
	return math.Pow(x, w.exp) // want `math.Pow on a per-event path`
}
