// Exponent-specialized Pow kernel for the ramp integrator (see DESIGN.md
// "Algebraic ramp integration").
//
// The hot-path contract of this file is bit-identity: every value the
// kernel computes must be the exact float64 math.Pow would have
// produced. The kernel therefore replicates math.Pow's evaluation
// sequence operation for operation, falling back to math.Pow itself for
// every input class outside the replicated regime.
package cpu

import "math"

// powKind selects the evaluation strategy a powKernel resolved at
// construction.
type powKind uint8

const (
	// powFallback: exponents math.Pow special-cases before its
	// square-and-multiply core (y ∈ {0, 1, ±0.5}, y ≤ 0, NaN/Inf, or an
	// integer part too large for the bit loop). Every call goes straight
	// to math.Pow.
	powFallback powKind = iota
	// powGeneric: math.Pow's square-and-multiply sequence with the
	// Modf(y) split and the yf > 0.5 adjustment hoisted to construction.
	powGeneric
	// pow35: the yi == 3, yf == 0.5 shape (voltExp = 3.5, every shipped
	// preset) with the two-bit squaring loop unrolled. For normal x the
	// loop's ±2¹² exponent guard is unreachable (|xe| ≤ 2048 after one
	// doubling), so the unrolled form needs no guard to stay bit-equal.
	pow35
)

// powKernel evaluates x**exp for one fixed exponent, bit-equal to
// math.Pow(x, exp) for every float64 x (proven by the exhaustive
// randomized differential test in powkernel_test.go). The per-call wins
// over math.Pow are the hoisted Modf split/branch dispatch and, for the
// shipped 3.5 exponent, the unrolled bit loop and a guarded
// multiply-by-2**ae in place of Ldexp.
type powKernel struct {
	exp  float64
	yf   float64 // fractional part of exp, shifted into (-0.5, 0.5]
	yi   int64   // integer part of exp after the yf > 0.5 carry
	kind powKind
}

// newPowKernel resolves the evaluation strategy for exp. The
// classification mirrors math.Pow's special-case ladder: any exponent
// that ladder intercepts before the square-and-multiply core is marked
// powFallback so eval defers to math.Pow unconditionally.
func newPowKernel(exp float64) powKernel {
	k := powKernel{exp: exp, kind: powFallback}
	if exp <= 0 || exp == 1 || exp == 0.5 ||
		math.IsNaN(exp) || math.IsInf(exp, 0) {
		return k
	}
	yi, yf := math.Modf(exp)
	if yi >= 1<<63 {
		return k
	}
	if yf != 0 && yf > 0.5 {
		// math.Pow performs this shift inside its yf != 0 branch; doing
		// it here once is the whole point of specializing.
		yf--
		yi++
	}
	k.yi, k.yf = int64(yi), yf
	if k.yi == 3 && k.yf == 0.5 {
		k.kind = pow35
	} else {
		k.kind = powGeneric
	}
	return k
}

// eval computes x**k.exp, bit-equal to math.Pow(x, k.exp). The
// replicated regime is positive normal finite x != 1; everything else —
// zeros, subnormals, negatives, infinities, NaN, exactly 1 — takes
// math.Pow's own special-case ladder by calling it.
func (k *powKernel) eval(x float64) float64 {
	b := math.Float64bits(x)
	// b-minNormal wraps below the positive-normal range, so one unsigned
	// compare covers zeros, subnormals, negatives, infinities and NaN.
	if k.kind == powFallback ||
		b-0x0010000000000000 > 0x7fdfffffffffffff ||
		b == 0x3ff0000000000000 {
		return math.Pow(x, k.exp) // math.Pow's own special-case ladder is the reference for everything outside the replicated regime
	}
	// ans = a1 * 2**ae, exactly as math.Pow accumulates it.
	a1 := 1.0
	ae := 0
	if k.yf != 0 {
		a1 = math.Exp(k.yf * math.Log(x))
	}
	// Frexp by bit surgery: for a positive normal x the generic Frexp's
	// subnormal normalization is a no-op, so the mantissa/exponent split
	// is two integer operations.
	xe := int(b>>52&0x7ff) - 1022
	x1 := math.Float64frombits(b&^(0x7ff<<52) | 1022<<52)
	switch k.kind {
	case pow35:
		// yi = 3 = 0b11: both loop iterations multiply. Iteration one —
		// xe ∈ [-1021, 1024] for normal x, inside the ±2¹² guard.
		a1 *= x1
		ae += xe
		x1 *= x1
		xe <<= 1
		if x1 < 0.5 {
			x1 += x1
			xe--
		}
		// Iteration two — |xe| ≤ 2048, still inside the guard; the
		// trailing squaring touches only dead state and is dropped.
		a1 *= x1
		ae += xe
	default: // powGeneric
		for i := k.yi; i != 0; i >>= 1 {
			if xe < -1<<12 || 1<<12 < xe {
				// math.Pow resolves catastrophic overflow/underflow with
				// its own sign analysis; recomputing from scratch keeps
				// this rare exit bit-equal by construction.
				return math.Pow(x, k.exp)
			}
			if i&1 == 1 {
				a1 *= x1
				ae += xe
			}
			x1 *= x1
			xe <<= 1
			if x1 < 0.5 {
				x1 += x1
				xe--
			}
		}
	}
	if ae < -1022 || ae > 1023 {
		// 2**ae is not a normal float64: only Ldexp's subnormal/overflow
		// rounding reproduces math.Pow here.
		return math.Ldexp(a1, ae)
	}
	// 2**ae is exactly representable, so this single multiply is the
	// same correctly-rounded product Ldexp(a1, ae) computes.
	return a1 * math.Float64frombits(uint64(1023+ae)<<52)
}
