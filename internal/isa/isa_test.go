package isa

import (
	"testing"
	"testing/quick"
)

func TestLookupAllOpcodes(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		info := Lookup(op)
		if info.Op != op {
			t.Errorf("Lookup(%v).Op = %v, want %v", op, info.Op, op)
		}
		if info.Name == "" {
			t.Errorf("Lookup(%v) has empty name", op)
		}
		if info.Latency <= 0 {
			t.Errorf("%v has non-positive latency %d", op, info.Latency)
		}
	}
}

func TestLookupPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup(9999) did not panic")
		}
	}()
	Lookup(Opcode(9999))
}

func TestByNameRoundTrip(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		got, ok := ByName(op.String())
		if !ok {
			t.Errorf("ByName(%q) not found", op.String())
			continue
		}
		if got != op {
			t.Errorf("ByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if _, ok := ByName("BOGUS"); ok {
		t.Error("ByName(BOGUS) unexpectedly found")
	}
}

func TestTable1OrderMatchesPaper(t *testing.T) {
	// Table 1: IMUL 79, VOR 47, AESENC 40, VXOR 40, VANDN 30, VAND 28,
	// VSQRTPD 24, VPCLMULQDQ 16, VPSRAD 9, VPCMP 5, VPMAX 3, VPADDQ 1.
	want := []struct {
		name  string
		count int
	}{
		{"IMUL", 79}, {"VOR", 47}, {"AESENC", 40}, {"VXOR", 40},
		{"VANDN", 30}, {"VAND", 28}, {"VSQRTPD", 24}, {"VPCLMULQDQ", 16},
		{"VPSRAD", 9}, {"VPCMP", 5}, {"VPMAX", 3}, {"VPADDQ", 1},
	}
	got := Table1()
	if len(got) != len(want) {
		t.Fatalf("Table1() has %d rows, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].FaultCount != w.count {
			t.Errorf("Table1()[%d] = %s/%d, want %s/%d",
				i, got[i].Name, got[i].FaultCount, w.name, w.count)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].FaultCount > got[i-1].FaultCount {
			t.Errorf("Table1 not sorted by fault count at %d: %d > %d",
				i, got[i].FaultCount, got[i-1].FaultCount)
		}
	}
}

func TestFaultableSetExcludesIMUL(t *testing.T) {
	fs := Faultable()
	if len(fs) != 11 {
		t.Fatalf("len(Faultable()) = %d, want 11", len(fs))
	}
	for _, op := range fs {
		if op == OpIMUL {
			t.Error("Faultable() contains IMUL; IMUL is hardened, not trapped")
		}
		if c := Lookup(op).Class; c != ClassFaultable {
			t.Errorf("%v in Faultable() but its class is %v", op, c)
		}
	}
	if c := Lookup(OpIMUL).Class; c != ClassHardened {
		t.Errorf("IMUL class = %v, want hardened", c)
	}
}

func TestSIMDFlags(t *testing.T) {
	// §5.8: all Table 1 instructions except IMUL and AESENC are SIMD...
	// but the paper treats recompilation as removing AESENC too (AES-NI
	// needs -maes); our model marks AESENC SIMD for the noSIMD build.
	if OpIMUL.IsSIMD() {
		t.Error("IMUL marked SIMD")
	}
	if !OpVOR.IsSIMD() || !OpVPADDQ.IsSIMD() {
		t.Error("vector ops must be SIMD")
	}
	if OpALU.IsSIMD() || OpLoad.IsSIMD() {
		t.Error("background scalar ops must not be SIMD")
	}
}

func TestFaultableMaskCoversExactlyFaultableSet(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		want := Lookup(op).Class == ClassFaultable
		if got := FaultableMask.Has(op); got != want {
			t.Errorf("FaultableMask.Has(%v) = %t, want %t", op, got, want)
		}
	}
}

func TestDisableMaskAlgebra(t *testing.T) {
	m := MaskOf(OpVOR, OpAESENC)
	if !m.Has(OpVOR) || !m.Has(OpAESENC) || m.Has(OpVXOR) {
		t.Errorf("MaskOf membership wrong: %b", m)
	}
	// MaskOf is a union: repeats and order do not matter.
	if MaskOf(OpAESENC, OpVOR, OpVOR) != m || MaskOf(OpVOR)|MaskOf(OpAESENC) != m {
		t.Errorf("MaskOf is not a set union: %b", m)
	}
	if MaskOf() != 0 {
		t.Errorf("empty MaskOf = %b, want 0", MaskOf())
	}
}

func TestDisableMaskProperties(t *testing.T) {
	inRange := func(raw uint16) Opcode { return Opcode(int(raw) % NumOpcodes) }
	// MaskOf(a, b) holds exactly a and b.
	prop := func(rawA, rawB uint16) bool {
		a, b := inRange(rawA), inRange(rawB)
		m := MaskOf(a, b)
		for op := Opcode(0); int(op) < NumOpcodes; op++ {
			if m.Has(op) != (op == a || op == b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassBackground: "background",
		ClassHardened:   "hardened",
		ClassFaultable:  "faultable",
		Class(99):       "Class(99)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

func TestFUKindString(t *testing.T) {
	seen := map[string]bool{}
	for f := FUALU; int(f) < NumFUKinds; f++ {
		s := f.String()
		if s == "" || seen[s] {
			t.Errorf("FUKind %d has empty or duplicate name %q", f, s)
		}
		seen[s] = true
	}
	if got := FUKind(200).String(); got != "FUKind(200)" {
		t.Errorf("unknown FUKind string = %q", got)
	}
}

func TestOpcodeStringOutOfRange(t *testing.T) {
	if got := Opcode(5000).String(); got != "Opcode(5000)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestIMULPipelined(t *testing.T) {
	// §4.2: IMUL is fully pipelined, latency 3, throughput 1/cycle.
	info := Lookup(OpIMUL)
	if !info.Pipelined || info.Latency != 3 {
		t.Errorf("IMUL latency=%d pipelined=%t, want 3/true", info.Latency, info.Pipelined)
	}
}
