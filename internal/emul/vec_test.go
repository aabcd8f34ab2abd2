package emul

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"suit/internal/isa"
	"suit/internal/units"
)

func TestLaneAccessors(t *testing.T) {
	v := Vec128{Lo: 0x1111111122222222, Hi: 0x3333333344444444}
	wants := [4]uint32{0x22222222, 0x11111111, 0x44444444, 0x33333333}
	for i, w := range wants {
		if got := v.U32(i); got != w {
			t.Errorf("U32(%d) = %#x, want %#x", i, got, w)
		}
	}
	for i := 0; i < 4; i++ {
		mod := v.WithU32(i, 0xAAAAAAAA)
		if mod.U32(i) != 0xAAAAAAAA {
			t.Errorf("WithU32(%d) did not set lane", i)
		}
		for j := 0; j < 4; j++ {
			if j != i && mod.U32(j) != v.U32(j) {
				t.Errorf("WithU32(%d) clobbered lane %d", i, j)
			}
		}
	}
}

func TestLanePanicsOutOfRange(t *testing.T) {
	fns := map[string]func(){
		"U32":     func() { Vec128{}.U32(4) },
		"WithU32": func() { Vec128{}.WithU32(-1, 0) },
		"F64":     func() { Vec128{}.F64(2) },
	}
	for name, fn := range fns {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBytesRoundTrip(t *testing.T) {
	prop := func(lo, hi uint64) bool {
		v := Vec128{lo, hi}
		return FromBytes(v.Bytes()) == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// Byte 0 is the LSB of Lo (little endian).
	b := Vec128{Lo: 0x01}.Bytes()
	if b[0] != 1 {
		t.Error("byte order not little-endian")
	}
}

func TestBitwiseOps(t *testing.T) {
	a := Vec128{0xF0F0F0F0F0F0F0F0, 0xAAAAAAAAAAAAAAAA}
	b := Vec128{0xFF00FF00FF00FF00, 0xCCCCCCCCCCCCCCCC}
	if got := VOR(a, b); got != (Vec128{a.Lo | b.Lo, a.Hi | b.Hi}) {
		t.Errorf("VOR = %v", got)
	}
	if got := VXOR(a, b); got != (Vec128{a.Lo ^ b.Lo, a.Hi ^ b.Hi}) {
		t.Errorf("VXOR = %v", got)
	}
	if got := VAND(a, b); got != (Vec128{a.Lo & b.Lo, a.Hi & b.Hi}) {
		t.Errorf("VAND = %v", got)
	}
	// VANDN is ~a & b, x86 operand order.
	if got := VANDN(a, b); got != (Vec128{^a.Lo & b.Lo, ^a.Hi & b.Hi}) {
		t.Errorf("VANDN = %v", got)
	}
}

func TestBitwiseAlgebra(t *testing.T) {
	prop := func(alo, ahi, blo, bhi uint64) bool {
		a, b := Vec128{alo, ahi}, Vec128{blo, bhi}
		// x ^ x == 0; x | x == x; x & x == x; andn(x, x) == 0.
		if VXOR(a, a) != (Vec128{}) || VOR(a, a) != a || VAND(a, a) != a {
			return false
		}
		if VANDN(a, a) != (Vec128{}) {
			return false
		}
		// De Morgan via andn: ~a & b == xor(or(a,b), a).
		return VANDN(a, b) == VXOR(VOR(a, b), a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestVPADDQWraps(t *testing.T) {
	a := Vec128{math.MaxUint64, 5}
	b := Vec128{1, 10}
	got := VPADDQ(a, b)
	if got.Lo != 0 || got.Hi != 15 {
		t.Errorf("VPADDQ = %+v, want wrap to 0 and 15", got)
	}
}

func TestVPSRADArithmetic(t *testing.T) {
	v := Vec128{}.WithU32(0, 0x80000000).WithU32(1, 0x00000010).WithU32(2, 0xFFFFFFF0).WithU32(3, 1)
	got := VPSRAD(v, 4)
	if got.U32(0) != 0xF8000000 {
		t.Errorf("negative lane shift = %#x, want sign fill", got.U32(0))
	}
	if got.U32(1) != 1 {
		t.Errorf("positive lane shift = %#x, want 1", got.U32(1))
	}
	if got.U32(2) != 0xFFFFFFFF {
		t.Errorf("−16>>4 = %#x, want −1", got.U32(2))
	}
	if got.U32(3) != 0 {
		t.Errorf("1>>4 = %#x, want 0", got.U32(3))
	}
	// Shift ≥ 32 fills with the sign bit.
	big := VPSRAD(v, 40)
	if big.U32(0) != 0xFFFFFFFF || big.U32(1) != 0 {
		t.Errorf("saturating shift = %#x/%#x", big.U32(0), big.U32(1))
	}
}

func TestVPCMPEQD(t *testing.T) {
	a := Vec128{}.WithU32(0, 7).WithU32(1, 8).WithU32(2, 0).WithU32(3, 0xFFFFFFFF)
	b := Vec128{}.WithU32(0, 7).WithU32(1, 9).WithU32(2, 0).WithU32(3, 0xFFFFFFFF)
	got := VPCMPEQD(a, b)
	wants := [4]uint32{0xFFFFFFFF, 0, 0xFFFFFFFF, 0xFFFFFFFF}
	for i, w := range wants {
		if got.U32(i) != w {
			t.Errorf("lane %d = %#x, want %#x", i, got.U32(i), w)
		}
	}
}

func TestVPMAXSDSigned(t *testing.T) {
	a := Vec128{}.WithU32(0, 0xFFFFFFFF).WithU32(1, 100) // −1, 100
	b := Vec128{}.WithU32(0, 1).WithU32(1, 0x80000000)   // 1, INT32_MIN
	got := VPMAXSD(a, b)
	if got.U32(0) != 1 {
		t.Errorf("max(−1,1) = %#x, want 1 (signed compare)", got.U32(0))
	}
	if got.U32(1) != 100 {
		t.Errorf("max(100,INT32_MIN) = %#x, want 100", got.U32(1))
	}
}

func TestVSQRTPD(t *testing.T) {
	v := FromF64(9, 2.25)
	got := VSQRTPD(v)
	if got.F64(0) != 3 || got.F64(1) != 1.5 {
		t.Errorf("VSQRTPD = %v/%v", got.F64(0), got.F64(1))
	}
	// Negative input produces NaN, like the hardware.
	neg := VSQRTPD(FromF64(-1, 4))
	if !math.IsNaN(neg.F64(0)) || neg.F64(1) != 2 {
		t.Errorf("VSQRTPD(-1,4) = %v/%v", neg.F64(0), neg.F64(1))
	}
}

func TestVPCLMULQDQKnownVectors(t *testing.T) {
	// (x+1)·(x+1) = x²+1 in GF(2)[x]: 3 ⊗ 3 = 5.
	if got := clmul64(3, 3); got.Lo != 5 || got.Hi != 0 {
		t.Errorf("3⊗3 = %+v, want Lo=5", got)
	}
	// Multiplying by x (=2) is a left shift.
	if got := clmul64(0x8000000000000000, 2); got.Lo != 0 || got.Hi != 1 {
		t.Errorf("MSB⊗x = %+v, want carry into Hi", got)
	}
	// Identity.
	if got := clmul64(0xDEADBEEFCAFEBABE, 1); got.Lo != 0xDEADBEEFCAFEBABE || got.Hi != 0 {
		t.Errorf("a⊗1 = %+v", got)
	}
}

func TestVPCLMULQDQProperties(t *testing.T) {
	prop := func(a, b, c uint64) bool {
		// Commutative.
		if clmul64(a, b) != clmul64(b, a) {
			return false
		}
		// Distributive over xor.
		ab := clmul64(a, b)
		ac := clmul64(a, c)
		abc := clmul64(a, b^c)
		if abc.Lo != ab.Lo^ac.Lo || abc.Hi != ab.Hi^ac.Hi {
			return false
		}
		// Degree bound: deg(a⊗b) = deg(a)+deg(b).
		if a != 0 && b != 0 {
			deg := (63 - bits.LeadingZeros64(a)) + (63 - bits.LeadingZeros64(b))
			r := clmul64(a, b)
			var topBit int
			if r.Hi != 0 {
				topBit = 64 + 63 - bits.LeadingZeros64(r.Hi)
			} else if r.Lo != 0 {
				topBit = 63 - bits.LeadingZeros64(r.Lo)
			} else {
				return false // product of nonzero polynomials is nonzero
			}
			if topBit != deg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVPCLMULQDQImmSelectors(t *testing.T) {
	a := Vec128{Lo: 3, Hi: 7}
	b := Vec128{Lo: 5, Hi: 9}
	if VPCLMULQDQ(a, b, 0x00) != clmul64(3, 5) {
		t.Error("imm 0x00 must select Lo×Lo")
	}
	if VPCLMULQDQ(a, b, 0x01) != clmul64(7, 5) {
		t.Error("imm 0x01 must select Hi×Lo")
	}
	if VPCLMULQDQ(a, b, 0x10) != clmul64(3, 9) {
		t.Error("imm 0x10 must select Lo×Hi")
	}
	if VPCLMULQDQ(a, b, 0x11) != clmul64(7, 9) {
		t.Error("imm 0x11 must select Hi×Hi")
	}
}

func TestEmulateDispatch(t *testing.T) {
	a := Vec128{0xF0, 0x0F}
	b := Vec128{0x0F, 0xF0}
	for _, op := range isa.Faultable() {
		got, err := emulate(op, a, b, 0)
		if err != nil {
			t.Errorf("emulate(%v) failed: %v", op, err)
			continue
		}
		_ = got
	}
	// Spot-check dispatch correctness.
	if got, _ := emulate(isa.OpVOR, a, b, 0); got != VOR(a, b) {
		t.Error("VOR dispatch wrong")
	}
	if got, _ := emulate(isa.OpAESENC, a, b, 0); got != AESENC(a, b) {
		t.Error("AESENC dispatch wrong")
	}
	if got, _ := emulate(isa.OpVPSRAD, a, b, 4); got != VPSRAD(a, 4) {
		t.Error("VPSRAD dispatch must use imm as shift count")
	}
	// Non-emulatable opcodes error.
	for _, op := range []isa.Opcode{isa.OpIMUL, isa.OpALU, isa.OpNop} {
		if _, err := emulate(op, a, b, 0); err == nil {
			t.Errorf("emulate(%v) should fail", op)
		}
	}
}

func TestCostModel(t *testing.T) {
	m := NewCostModel(units.Microseconds(0.77))
	f := units.GHz(4)
	// Cost = call delay + cycles/f; VOR is 6 cycles = 1.5 ns at 4 GHz.
	got := m.Time(isa.OpVOR, f)
	want := units.Microseconds(0.77) + units.TimeFor(6, f)
	if math.Abs(float64(got-want)) > 1e-15 {
		t.Errorf("Time(VOR) = %v, want %v", got, want)
	}
	// AESENC costs more than VOR; the call delay dominates both (§3.4:
	// "the two transitions into the kernel and back dominate").
	aes := m.Time(isa.OpAESENC, f)
	if aes <= got {
		t.Error("AESENC emulation must cost more than VOR")
	}
	if float64(m.CallDelay)/float64(aes) < 0.5 {
		t.Errorf("call delay should dominate emulation cost: %v of %v", m.CallDelay, aes)
	}
	// Every faultable opcode has a cycle count.
	for _, op := range isa.Faultable() {
		if m.Cycles[op] <= 0 {
			t.Errorf("no cycle count for %v", op)
		}
	}
}
