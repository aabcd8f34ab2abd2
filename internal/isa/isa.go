// Package isa defines the instruction-set model used throughout the SUIT
// simulator: an x86-64-flavoured opcode space, instruction classes, the set
// of undervolting-faultable instructions observed by Kogler et al. (Table 1
// of the paper), and per-opcode microarchitectural metadata (latency,
// throughput, functional-unit class).
//
// The simulator does not interpret machine code; it executes abstract
// instruction events. The opcode space here is therefore a curated set of
// the instructions that matter for SUIT — the faultable set, IMUL, and a
// handful of background classes (scalar ALU, loads/stores, branches) used
// by the out-of-order model in internal/uarch.
package isa

import "fmt"

// Opcode identifies one instruction kind in the simulated ISA.
type Opcode uint16

// The opcode space. Background classes first, then the faultable set of
// Table 1 in decreasing observed fault count.
const (
	// OpNop is the zero Opcode and is never executed; it marks "no
	// instruction" in traces and exception records.
	OpNop Opcode = iota

	// Background (never faultable) classes.
	OpALU    // scalar integer add/sub/logic, 1-cycle
	OpLoad   // memory load
	OpStore  // memory store
	OpBranch // conditional/unconditional branch
	OpFPAdd  // scalar floating-point add/sub
	OpFPMul  // scalar floating-point multiply
	OpDiv    // integer/FP divide (long latency, unpipelined)
	OpLEA    // address generation

	// IMUL: the high-frequency faultable instruction (§4.2). SUIT hardens
	// it statically (latency 3 → 4) instead of trapping it.
	OpIMUL

	// The low-frequency faultable set (Table 1), ordered by the number of
	// observed faults in Kogler et al.'s study.
	OpVOR        // vector bitwise or (VOR*)
	OpAESENC     // one AES encryption round
	OpVXOR       // vector bitwise xor (VXOR*)
	OpVANDN      // vector and-not (VANDN*)
	OpVAND       // vector and (VAND*)
	OpVSQRTPD    // packed double sqrt
	OpVPCLMULQDQ // carry-less multiply
	OpVPSRAD     // packed arithmetic shift right
	OpVPCMP      // packed compare (VPCMP*)
	OpVPMAX      // packed max (VPMAX*)
	OpVPADDQ     // packed 64-bit add

	numOpcodes // sentinel; keep last
)

// NumOpcodes is the size of the opcode space (including OpNop).
const NumOpcodes = int(numOpcodes)

// Class groups opcodes by their role in the SUIT design.
type Class uint8

const (
	// ClassBackground instructions never fault from undervolting within
	// the voltage ranges SUIT uses.
	ClassBackground Class = iota
	// ClassHardened instructions (IMUL) are frequent faultable
	// instructions whose critical path is statically relaxed in hardware.
	ClassHardened
	// ClassFaultable instructions are the infrequent faultable set that
	// SUIT disables on the efficient DVFS curve.
	ClassFaultable
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassBackground:
		return "background"
	case ClassHardened:
		return "hardened"
	case ClassFaultable:
		return "faultable"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// FUKind is the functional-unit class an opcode executes on, used by the
// out-of-order model.
type FUKind uint8

const (
	FUALU FUKind = iota
	FUMul
	FUDiv
	FULoad
	FUStore
	FUBranch
	FUFPAdd
	FUFPMul
	FUVector
	FUAES
	NumFUKinds = int(FUAES) + 1
)

// String implements fmt.Stringer.
func (f FUKind) String() string {
	switch f {
	case FUALU:
		return "alu"
	case FUMul:
		return "mul"
	case FUDiv:
		return "div"
	case FULoad:
		return "load"
	case FUStore:
		return "store"
	case FUBranch:
		return "branch"
	case FUFPAdd:
		return "fpadd"
	case FUFPMul:
		return "fpmul"
	case FUVector:
		return "vector"
	case FUAES:
		return "aes"
	default:
		return fmt.Sprintf("FUKind(%d)", uint8(f))
	}
}

// Info is the static metadata for one opcode.
type Info struct {
	Op         Opcode
	Name       string // canonical mnemonic, e.g. "IMUL", "VPCLMULQDQ"
	Class      Class
	FU         FUKind
	Latency    int  // result latency in clock cycles (baseline, unhardened)
	Pipelined  bool // whether a new input can issue every cycle
	SIMD       bool // part of SSE/AVX; removed when compiling without SIMD
	FaultCount int  // observed faults in Kogler et al. (Table 1); 0 if none
}

// Latency values follow Agner Fog's tables for contemporary Intel/AMD
// cores, as cited by the paper (IMUL: 3 cycles, throughput 1/cycle).
var infos = [numOpcodes]Info{
	OpNop:    {Op: OpNop, Name: "NOP", Class: ClassBackground, FU: FUALU, Latency: 1, Pipelined: true},
	OpALU:    {Op: OpALU, Name: "ALU", Class: ClassBackground, FU: FUALU, Latency: 1, Pipelined: true},
	OpLoad:   {Op: OpLoad, Name: "LOAD", Class: ClassBackground, FU: FULoad, Latency: 4, Pipelined: true},
	OpStore:  {Op: OpStore, Name: "STORE", Class: ClassBackground, FU: FUStore, Latency: 1, Pipelined: true},
	OpBranch: {Op: OpBranch, Name: "BRANCH", Class: ClassBackground, FU: FUBranch, Latency: 1, Pipelined: true},
	OpFPAdd:  {Op: OpFPAdd, Name: "FPADD", Class: ClassBackground, FU: FUFPAdd, Latency: 3, Pipelined: true},
	OpFPMul:  {Op: OpFPMul, Name: "FPMUL", Class: ClassBackground, FU: FUFPMul, Latency: 4, Pipelined: true},
	OpDiv:    {Op: OpDiv, Name: "DIV", Class: ClassBackground, FU: FUDiv, Latency: 20, Pipelined: false},
	OpLEA:    {Op: OpLEA, Name: "LEA", Class: ClassBackground, FU: FUALU, Latency: 1, Pipelined: true},

	OpIMUL: {Op: OpIMUL, Name: "IMUL", Class: ClassHardened, FU: FUMul, Latency: 3, Pipelined: true, FaultCount: 79},

	OpVOR:        {Op: OpVOR, Name: "VOR", Class: ClassFaultable, FU: FUVector, Latency: 1, Pipelined: true, SIMD: true, FaultCount: 47},
	OpAESENC:     {Op: OpAESENC, Name: "AESENC", Class: ClassFaultable, FU: FUAES, Latency: 4, Pipelined: true, SIMD: true, FaultCount: 40},
	OpVXOR:       {Op: OpVXOR, Name: "VXOR", Class: ClassFaultable, FU: FUVector, Latency: 1, Pipelined: true, SIMD: true, FaultCount: 40},
	OpVANDN:      {Op: OpVANDN, Name: "VANDN", Class: ClassFaultable, FU: FUVector, Latency: 1, Pipelined: true, SIMD: true, FaultCount: 30},
	OpVAND:       {Op: OpVAND, Name: "VAND", Class: ClassFaultable, FU: FUVector, Latency: 1, Pipelined: true, SIMD: true, FaultCount: 28},
	OpVSQRTPD:    {Op: OpVSQRTPD, Name: "VSQRTPD", Class: ClassFaultable, FU: FUVector, Latency: 18, Pipelined: false, SIMD: true, FaultCount: 24},
	OpVPCLMULQDQ: {Op: OpVPCLMULQDQ, Name: "VPCLMULQDQ", Class: ClassFaultable, FU: FUVector, Latency: 7, Pipelined: true, SIMD: true, FaultCount: 16},
	OpVPSRAD:     {Op: OpVPSRAD, Name: "VPSRAD", Class: ClassFaultable, FU: FUVector, Latency: 1, Pipelined: true, SIMD: true, FaultCount: 9},
	OpVPCMP:      {Op: OpVPCMP, Name: "VPCMP", Class: ClassFaultable, FU: FUVector, Latency: 1, Pipelined: true, SIMD: true, FaultCount: 5},
	OpVPMAX:      {Op: OpVPMAX, Name: "VPMAX", Class: ClassFaultable, FU: FUVector, Latency: 1, Pipelined: true, SIMD: true, FaultCount: 3},
	OpVPADDQ:     {Op: OpVPADDQ, Name: "VPADDQ", Class: ClassFaultable, FU: FUVector, Latency: 1, Pipelined: true, SIMD: true, FaultCount: 1},
}

var byName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := Opcode(0); op < numOpcodes; op++ {
		m[infos[op].Name] = op
	}
	return m
}()

// Lookup returns the Info for op. It panics if op is out of range, which
// indicates a corrupted trace or programming error.
func Lookup(op Opcode) Info {
	if int(op) >= NumOpcodes {
		panic(fmt.Sprintf("isa: opcode %d out of range", op)) //lint:allow allocfree panic formatting on the corrupted-trace invariant; unreachable for validated traces
	}
	return infos[op]
}

// Valid reports whether op is a defined opcode (including OpNop).
func Valid(op Opcode) bool { return int(op) < NumOpcodes }

// ByName returns the opcode with the given canonical mnemonic.
func ByName(name string) (Opcode, bool) {
	op, ok := byName[name]
	return op, ok
}

// String implements fmt.Stringer.
func (op Opcode) String() string {
	if !Valid(op) {
		return fmt.Sprintf("Opcode(%d)", uint16(op))
	}
	return infos[op].Name
}

// IsSIMD reports whether op disappears from a binary compiled without
// SSE/AVX support (§5.8: every Table 1 instruction except IMUL and AESENC
// is SIMD; AESENC is AES-NI, not SSE/AVX, but compilers emit it only with
// -maes, so recompilation also removes it — the paper counts only IMUL and
// AESENC as non-SIMD, which we follow).
func (op Opcode) IsSIMD() bool { return Lookup(op).SIMD }

// Faultable returns the faultable set in Table 1 order (decreasing observed
// fault count). IMUL is excluded: it is hardened, not trapped.
func Faultable() []Opcode {
	out := make([]Opcode, 0, 11)
	for op := Opcode(0); op < numOpcodes; op++ {
		if infos[op].Class == ClassFaultable {
			out = append(out, op)
		}
	}
	return out
}

// Table1 returns all instructions with observed undervolting faults
// (IMUL first, then the faultable set) in decreasing fault-count order,
// exactly as the paper's Table 1 lists them.
func Table1() []Info {
	out := make([]Info, 0, 12)
	for op := Opcode(0); op < numOpcodes; op++ {
		if infos[op].FaultCount > 0 {
			out = append(out, infos[op])
		}
	}
	// infos is already ordered by decreasing fault count within each
	// class, and IMUL (79) precedes the faultable set, so declaration
	// order is Table 1 order.
	return out
}

// DisableMask is a bit set over opcodes, used by the SUIT disable-opcode
// MSR to select which instructions raise #DO.
type DisableMask uint32

// MaskOf builds a DisableMask containing the given opcodes.
func MaskOf(ops ...Opcode) DisableMask {
	var m DisableMask
	for _, op := range ops {
		m |= 1 << op
	}
	return m
}

// FaultableMask is the mask of the full faultable set — what the OS writes
// to the disable MSR before selecting the efficient DVFS curve.
var FaultableMask = MaskOf(Faultable()...)

// Has reports whether op is in the mask.
func (m DisableMask) Has(op Opcode) bool { return m&(1<<op) != 0 }
