package cpu

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"suit/internal/units"
)

// shippedExp is the dynamic-power exponent of every chip preset; the
// 256-bit reference below is specialized to it (V^4.5 = V⁴·√V).
const shippedExp = 3.5

// Realizable supply voltages: every preset curve, undervolted or not,
// stays inside this band.
const vMin, vMax = 0.55, 1.35

// voltPowIntegralsRef is the per-segment Simpson integrator the epoch
// closed form replaced, kept as the accuracy comparator: ∫V²dτ exactly
// and ∫Vᵉdτ by Simpson's rule on each linear piece of [t0, t1], every
// power from math.Pow.
func (r *ramp) voltPowIntegralsRef(t0, t1 units.Second, exp float64) (i2, ie float64) {
	// Split at the ramp boundaries. A fixed array keeps the hot loop
	// allocation-free.
	var points [4]units.Second
	points[0], points[1] = t0, t1
	n := 2
	if r.voltT0 > t0 && r.voltT0 < t1 {
		points[n] = r.voltT0
		n++
	}
	if r.voltT1 > t0 && r.voltT1 < t1 {
		points[n] = r.voltT1
		n++
	}
	// Simple 4-element sort.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && points[j] < points[j-1]; j-- {
			points[j], points[j-1] = points[j-1], points[j]
		}
	}
	for i := 1; i < n; i++ {
		a, b := points[i-1], points[i]
		if b <= a {
			continue
		}
		va, vb := float64(r.voltAt(a)), float64(r.voltAt(b))
		seg := float64(b - a)
		// Exact: ∫(va + (vb-va)·s)² = (va² + va·vb + vb²)/3 × length.
		i2 += (va*va + va*vb + vb*vb) / 3 * seg
		if exp == 2 {
			continue
		}
		pa := math.Pow(va, exp)
		pmid := math.Pow((va+vb)/2, exp)
		pb := math.Pow(vb, exp)
		ie += (pa + 4*pmid + pb) / 6 * seg
	}
	if exp == 2 {
		// With a quadratic dynamic exponent both integrals accumulate the
		// identical term sequence, so reuse keeps them bit-equal.
		ie = i2
	}
	return i2, ie
}

// refPrec is the working precision of the exact reference.
const refPrec = 256

// bigPow45 returns v^4.5 = v⁴·√v at refPrec bits.
func bigPow45(v float64) *big.Float {
	x := new(big.Float).SetPrec(refPrec).SetFloat64(v)
	x2 := new(big.Float).SetPrec(refPrec).Mul(x, x)
	x4 := new(big.Float).SetPrec(refPrec).Mul(x2, x2)
	return x4.Mul(x4, new(big.Float).SetPrec(refPrec).Sqrt(x))
}

// refRampIntegral is ∫V^3.5 dτ over a linear ramp from va to vb lasting
// dt, to refPrec bits: (vb^4.5 − va^4.5)/(4.5·slope) with slope
// (vb − va)/dt, or va^3.5·dt for a flat ramp. The float64 inputs are
// taken as exact.
func refRampIntegral(va, vb, dt float64) *big.Float {
	bdt := new(big.Float).SetPrec(refPrec).SetFloat64(dt)
	if va == vb {
		x := new(big.Float).SetPrec(refPrec).SetFloat64(va)
		p := new(big.Float).SetPrec(refPrec).Quo(bigPow45(va), x)
		return p.Mul(p, bdt)
	}
	num := new(big.Float).SetPrec(refPrec).Sub(bigPow45(vb), bigPow45(va))
	dv := new(big.Float).SetPrec(refPrec).Sub(
		new(big.Float).SetPrec(refPrec).SetFloat64(vb),
		new(big.Float).SetPrec(refPrec).SetFloat64(va))
	den := dv.Mul(dv, new(big.Float).SetPrec(refPrec).SetFloat64(4.5))
	num.Mul(num, bdt)
	return num.Quo(num, den)
}

// absErr returns |got − ref| as a float64.
func absErr(got float64, ref *big.Float) float64 {
	d := new(big.Float).SetPrec(refPrec).SetFloat64(got)
	d.Sub(d, ref)
	f, _ := d.Float64()
	return math.Abs(f)
}

// ulpOf is the float64 spacing at x > 0.
func ulpOf(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// rampCase is one ramp over [0, dt] with interior cut points: the
// production path integrates it as one epoch, the Simpson comparator
// sums voltPowIntegralsRef over the pieces the cuts make.
type rampCase struct {
	va, vb, dt float64
	cuts       []units.Second // strictly inside (0, dt), ascending
}

// checkRampCase holds the epoch closed form to the 256-bit reference:
// relative error at most 1e-14, and never more than 8 ulps worse than
// the per-segment Simpson sum. It also pins ie == i2 at exponent 2.
func checkRampCase(t *testing.T, c rampCase) {
	t.Helper()
	r := ramp{volt: units.Volt(c.va), voltGoal: units.Volt(c.vb), voltT1: units.Second(c.dt)}
	end := units.Second(c.dt)
	_, closed := r.integrals(0, end, shippedExp)
	simpson := 0.0
	prev := units.Second(0)
	for _, cut := range append(c.cuts, end) {
		_, ie := r.voltPowIntegralsRef(prev, cut, shippedExp)
		simpson += ie
		prev = cut
	}
	ref := refRampIntegral(c.va, c.vb, c.dt)
	refF, _ := ref.Float64()
	errClosed, errSimpson := absErr(closed, ref), absErr(simpson, ref)
	if errClosed > 1e-14*refF {
		t.Fatalf("ramp %.17g→%.17g V over %g s: closed form %.17g, reference %.17g, relative error %.3g > 1e-14",
			c.va, c.vb, c.dt, closed, refF, errClosed/refF)
	}
	if errClosed > errSimpson+8*ulpOf(refF) {
		t.Fatalf("ramp %.17g→%.17g V over %g s (%d pieces): closed-form error %.3g exceeds the Simpson sum's %.3g by %.1f ulps",
			c.va, c.vb, c.dt, len(c.cuts)+1, errClosed, errSimpson, (errClosed-errSimpson)/ulpOf(refF))
	}
	i2, ie := r.integrals(0, end, 2)
	if math.Float64bits(ie) != math.Float64bits(i2) {
		t.Fatalf("exp == 2: ie %g [0x%016x] != i2 %g [0x%016x]", ie, math.Float64bits(ie), i2, math.Float64bits(i2))
	}
}

// TestClosedFormBeatsSimpson is the accuracy proof of the epoch closed
// form on 10⁵ randomized ramps: start voltages across the realizable
// band, swings log-uniform from 1 nV to 200 mV in either direction,
// durations from 1 ns to 1 ms, each split into 1–64 random pieces for
// the Simpson comparator.
func TestClosedFormBeatsSimpson(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	rng := rand.New(rand.NewPCG(14, 4))
	for i := 0; i < n; i++ {
		va := vMin + 0.2 + rng.Float64()*(vMax-vMin-0.4)
		dv := math.Pow(10, -9+rng.Float64()*math.Log10(2e8)) // 1e-9 … 0.2 V
		if rng.IntN(2) == 0 {
			dv = -dv
		}
		c := rampCase{va: va, vb: va + dv, dt: math.Pow(10, -9+6*rng.Float64())}
		for k := rng.IntN(64); k > 0; k-- {
			c.cuts = append(c.cuts, units.Second(rng.Float64()*c.dt))
		}
		c.cuts = sortedInterior(c.cuts, units.Second(c.dt))
		checkRampCase(t, c)
	}
}

// sortedInterior sorts cuts and drops any not strictly inside (0, end)
// or repeating its predecessor.
func sortedInterior(cuts []units.Second, end units.Second) []units.Second {
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	out := cuts[:0]
	for _, c := range cuts {
		if c > 0 && c < end && (len(out) == 0 || c > out[len(out)-1]) {
			out = append(out, c)
		}
	}
	return out
}

// FuzzVoltPowIntegrals holds the epoch closed form for ∫V²dτ and ∫Vᵉdτ
// to the same bounds as TestClosedFormBeatsSimpson for arbitrary
// realizable endpoints, durations and split points, and pins the
// exponent-2 invariant ie == i2.
func FuzzVoltPowIntegrals(f *testing.F) {
	f.Add(0.95, 0.80, 1e-6, 0.1, 0.5, 0.9)
	f.Add(0.80, 0.95, 1e-6, 0.25, 0.25, 0.75)
	f.Add(1.05, 0.75, 3e-5, 0.01, 0.02, 0.99)
	f.Add(0.9, 0.9, 5e-7, 0.5, 0.6, 0.7)
	f.Add(0.7, 0.700000001, 1e-3, 0.3, 0.3, 0.3)
	f.Fuzz(func(t *testing.T, va, vb, dt, s1, s2, s3 float64) {
		if !(va >= vMin && va <= vMax && vb >= vMin && vb <= vMax && dt >= 1e-12 && dt <= 1) {
			t.Skip()
		}
		var cuts []units.Second
		for _, s := range []float64{s1, s2, s3} {
			if s > 0 && s < 1 {
				cuts = append(cuts, units.Second(s*dt))
			}
		}
		checkRampCase(t, rampCase{va: va, vb: vb, dt: dt, cuts: sortedInterior(cuts, units.Second(dt))})
	})
}

// TestIntegralsSplitAtBreakpoints checks the window handling of
// integrals: a window that starts before the ramp and ends after it is
// the sum of its flat lead-in, the ramp and its flat tail.
func TestIntegralsSplitAtBreakpoints(t *testing.T) {
	r := ramp{volt: 0.9, voltGoal: 0.8, voltT0: 2e-6, voltT1: 5e-6}
	i2, ie := r.integrals(1e-6, 7e-6, shippedExp)
	lead := math.Pow(0.9, shippedExp) * 1e-6
	tail := math.Pow(0.8, shippedExp) * 2e-6
	mid, _ := refRampIntegral(0.9, 0.8, 3e-6).Float64()
	if want := lead + mid + tail; math.Abs(ie-want) > 1e-14*want {
		t.Errorf("ie = %.17g, want %.17g", ie, want)
	}
	want2 := 0.81e-6 + (0.81+0.72+0.64)/3*3e-6 + 0.64*2e-6
	if math.Abs(i2-want2) > 1e-14*want2 {
		t.Errorf("i2 = %.17g, want %.17g", i2, want2)
	}
	// A settled trajectory is voltGoal everywhere, even before voltT0.
	s := ramp{volt: 0.9, voltGoal: 0.8, voltT0: 3e-6, voltT1: 3e-6}
	if i2, _ := s.integrals(0, 4e-6, shippedExp); math.Abs(i2-0.64*4e-6) > 1e-14*0.64*4e-6 {
		t.Errorf("settled i2 = %.17g, want %.17g", i2, 0.64*4e-6)
	}
}
