package cpu

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"suit/internal/units"
)

// kernelExponents is the differential-test exponent set: the shipped
// voltExp (3.5, the specialized pow35 kernel), other powGeneric shapes
// (integer parts with varied bit patterns, fractional parts on both
// sides of the 0.5 carry), and every powFallback class the constructor
// must route back to math.Pow.
var kernelExponents = []float64{
	3.5, 2, 2.5, 3, 1.2, 0.7, 7.25, 10.0 / 3, 33.75, 127,
	1, 0.5, 0, -1.5, -0.5, math.Inf(1), math.Inf(-1), math.NaN(),
}

// kernelInputs returns a differential corpus for one rng: the dense
// realizable voltage band, a log-uniform sweep across the whole binade
// range, ulp-stepped neighbourhoods of the algebraically special points,
// and the explicit special values.
func kernelInputs(rng *rand.Rand) []float64 {
	xs := make([]float64, 0, 4096)
	// Realizable voltages: every value the simulator can actually ask for.
	for i := 0; i < 1200; i++ {
		xs = append(xs, 0.4+rng.Float64())
	}
	// Log-uniform wide: magnitudes from ~1e-90 to ~1e+90.
	for i := 0; i < 1200; i++ {
		xs = append(xs, math.Exp2((rng.Float64()-0.5)*600))
	}
	// Ulp walks around 1, 0.5 and 2 (the mantissa/exponent split edges).
	for _, center := range []float64{1, 0.5, 2} {
		x := center
		for i := 0; i < 64; i++ {
			x = math.Nextafter(x, 2*center)
			xs = append(xs, x)
		}
		x = center
		for i := 0; i < 64; i++ {
			x = math.Nextafter(x, 0)
			xs = append(xs, x)
		}
	}
	// Exact powers of two, including extremes near overflow/underflow.
	for _, e := range []int{-1074, -1073, -1022, -1021, -512, -1, 0, 1, 511, 1022, 1023} {
		xs = append(xs, math.Ldexp(1, e))
	}
	// Specials and out-of-regime classes.
	xs = append(xs,
		0, math.Copysign(0, -1), 1, -1, -0.75, -2.5,
		math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 1e-310, -5e-324,
		math.MaxFloat64, -math.MaxFloat64,
	)
	return xs
}

// TestPowKernelMatchesMathPow is the tentpole's bit-identity proof for
// the exponent-specialized kernel: for every exponent shape and a wide
// randomized input corpus, eval must return the exact bits math.Pow
// returns.
func TestPowKernelMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 10))
	xs := kernelInputs(rng)
	for _, exp := range kernelExponents {
		k := newPowKernel(exp)
		for _, x := range xs {
			got := k.eval(x)
			want := math.Pow(x, exp)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("eval(%g [0x%016x], exp=%g): got %g [0x%016x], math.Pow %g [0x%016x]",
					x, math.Float64bits(x), exp,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestPowKernelKinds pins the constructor's strategy resolution.
func TestPowKernelKinds(t *testing.T) {
	cases := []struct {
		exp  float64
		kind powKind
	}{
		{3.5, pow35},
		{2.5, powGeneric}, // yi=2, yf=0.5: not the specialized shape
		{2, powGeneric},
		{1.2, powGeneric},
		{7.25, powGeneric},
		{1, powFallback},
		{0.5, powFallback},
		{0, powFallback},
		{-1.5, powFallback},
		{math.Inf(1), powFallback},
		{math.NaN(), powFallback},
	}
	for _, c := range cases {
		if k := newPowKernel(c.exp); k.kind != c.kind {
			t.Errorf("newPowKernel(%g).kind = %d, want %d", c.exp, k.kind, c.kind)
		}
	}
}

// rampDomain builds a bare domain with the given linear ramp state, the
// minimum voltPowIntegrals and voltPowIntegralsRef need.
func rampDomain(volt, voltGoal float64, voltT0, voltT1 units.Second) *domain {
	return &domain{
		volt:     units.Volt(volt),
		voltGoal: units.Volt(voltGoal),
		voltT0:   voltT0,
		voltT1:   voltT1,
	}
}

// voltPowIntegralsRef is the math.Pow reference for voltPowIntegrals,
// kept verbatim from the pre-kernel integrator as the differential
// oracle of FuzzVoltPowIntegrals.
func (d *domain) voltPowIntegralsRef(t0, t1 units.Second, exp float64) (i2, ie float64) {
	// Split at the ramp boundaries. A fixed array keeps the hot loop
	// allocation-free.
	var points [4]units.Second
	points[0], points[1] = t0, t1
	n := 2
	if d.voltT0 > t0 && d.voltT0 < t1 {
		points[n] = d.voltT0
		n++
	}
	if d.voltT1 > t0 && d.voltT1 < t1 {
		points[n] = d.voltT1
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
		va, vb := float64(d.voltAt(a)), float64(d.voltAt(b))
		seg := float64(b - a)
		// Exact: ∫(va + (vb-va)·s)² = (va² + va·vb + vb²)/3 × length.
		i2 += (va*va + va*vb + vb*vb) / 3 * seg
		if exp == 2 {
			continue
		}
		var pa float64
		if d.pvOK && d.pvV == va {
			pa = d.pvP
		} else {
			pa = math.Pow(va, exp)
		}
		vm := (va + vb) / 2
		pmid := math.Pow(vm, exp)
		pb := math.Pow(vb, exp)
		d.pvV, d.pvP, d.pvOK = vb, pb, true
		ie += (pa + 4*pmid + pb) / 6 * seg
	}
	if exp == 2 {
		// With a quadratic dynamic exponent both integrals accumulate the
		// identical term sequence, so reuse keeps them bit-equal.
		ie = i2
	}
	return i2, ie
}

// FuzzVoltPowIntegrals fuzzes the production mid-ramp integrator against
// the math.Pow reference: for arbitrary ramp state, query window and
// exponent, voltPowIntegrals must return bit-identical integrals to
// voltPowIntegralsRef — including across repeat queries and the
// chain-cache interplay. It also pins the exp == 2 invariant ie == i2.
func FuzzVoltPowIntegrals(f *testing.F) {
	f.Add(0.0, 1e-6, 0.0, 1e-6, 0.95, 0.80, 3.5)
	f.Add(1e-7, 9e-7, 0.0, 1e-6, 0.80, 0.95, 3.5)
	f.Add(0.0, 1e-6, 2e-7, 8e-7, 1.05, 0.75, 2.0)
	f.Add(0.0, 5e-7, 0.0, 0.0, 0.9, 0.9, 2.5)
	f.Add(-1e-7, 1e-6, -2e-7, 1.2e-6, 0.7, 1.3, 7.25)
	f.Fuzz(func(t *testing.T, t0, t1, vT0, vT1, volt, goal, exp float64) {
		// Reject windows and ramps the simulator cannot produce:
		// non-finite state, or a reversed query window.
		for _, v := range []float64{t0, t1, vT0, vT1, volt, goal, exp} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if t1 < t0 || vT1 < vT0 {
			t.Skip()
		}
		k := newPowKernel(exp)
		dKern := rampDomain(volt, goal, units.Second(vT0), units.Second(vT1))
		dRef := rampDomain(volt, goal, units.Second(vT0), units.Second(vT1))
		// Three rounds: cold, a repeat of the same window, and a shifted
		// window that exercises the chain cache both paths carried out
		// of round two.
		windows := [][2]units.Second{
			{units.Second(t0), units.Second(t1)},
			{units.Second(t0), units.Second(t1)},
			{units.Second(t1), units.Second(t1 + (t1 - t0))},
		}
		for round, w := range windows {
			gi2, gie := dKern.voltPowIntegrals(w[0], w[1], &k)
			wi2, wie := dRef.voltPowIntegralsRef(w[0], w[1], exp)
			if math.Float64bits(gi2) != math.Float64bits(wi2) ||
				math.Float64bits(gie) != math.Float64bits(wie) {
				t.Fatalf("round %d window [%g, %g] exp=%g: kernel (%g [0x%016x], %g [0x%016x]) != ref (%g [0x%016x], %g [0x%016x])",
					round, float64(w[0]), float64(w[1]), exp,
					gi2, math.Float64bits(gi2), gie, math.Float64bits(gie),
					wi2, math.Float64bits(wi2), wie, math.Float64bits(wie))
			}
			if exp == 2 && math.Float64bits(gie) != math.Float64bits(gi2) {
				t.Fatalf("round %d: exp == 2 invariant violated: ie %g [0x%016x] != i2 %g [0x%016x]",
					round, gie, math.Float64bits(gie), gi2, math.Float64bits(gi2))
			}
		}
	})
}

// TestResetClearsVoltAndPowCaches is the Reset regression test: poison
// every per-domain value cache between two replays and require the
// results to stay identical. Before pvOK joined vcOK in Reset's clear
// list, the poisoned chain cache survived into the replay and the
// mid-ramp integrator consumed the stale Pow value directly. The traces
// carry faultable events so that fvLite's traps drive voltage ramps
// through that integrator; without them the run never leaves the
// settled-voltage path and the chain cache is never read.
//
// The subtest names date from the memoized integrator. "rampmemo" runs
// the production exponent-specialized kernel; "reference" forces the
// powFallback kernel, which takes every Pow from math.Pow and so runs
// the machine on the reference integrator. Both must also agree with
// each other bit for bit.
func TestResetClearsVoltAndPowCaches(t *testing.T) {
	build := func(t *testing.T) *Machine {
		t.Helper()
		cfg := testConfig(testTrace(20000, 1, 3000, 9000), testTrace(20000, 2, 5000))
		m, err := New(cfg, fvLite{deadline: units.Microseconds(2)})
		if err != nil {
			t.Fatal(err)
		}
		if m.kern.kind == powFallback {
			t.Fatalf("voltExp %g resolved to powFallback; the production kernel must be specialized here", m.voltExp)
		}
		return m
	}
	for _, reference := range []bool{false, true} {
		name := "rampmemo"
		if reference {
			name = "reference"
		}
		t.Run(name, func(t *testing.T) {
			m := build(t)
			if reference {
				m.kern = powKernel{exp: m.voltExp, kind: powFallback}
			}
			first, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if reference {
				want, err := build(t).Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, want) {
					t.Fatal("math.Pow reference run diverged from the specialized-kernel run")
				}
			}
			for round := 0; round < 2; round++ {
				// Poison before Reset: Reset must clear all of it. pvV is
				// set to the efficient-curve voltage fvLite boots into —
				// the first ramp's actual start voltage — so a surviving
				// chain cache would feed a wrong Pow into the first
				// mid-ramp segment.
				for _, d := range m.domains {
					d.pvOK = true
					d.pvV = float64(m.pts.E.V)
					d.pvP = 123.456
					d.vcOK = true
					d.vcGoal = d.voltGoal
					d.vcV2 = 1e9
					d.vcVe = -1e9
					d.consVOK = true
					d.consVFreq = d.freq
					d.consV = 42
				}
				m.Reset()
				got, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, first) {
					t.Fatalf("reference=%v round %d: replay after poisoned caches diverged from first run", reference, round)
				}
			}
		})
	}
}
