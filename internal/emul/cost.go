package emul

import (
	"suit/internal/isa"
	"suit/internal/units"
)

// CostModel prices an emulated execution: the fixed emulation-call delay
// (two kernel transitions, §5.3 — 0.77 µs on the i9-9900K, 0.27 µs on the
// 7700X) plus the work of the software replacement in core cycles.
type CostModel struct {
	// CallDelay is the end-to-end #DO → user-space emulation → kernel →
	// program resume cost, excluding the emulation work itself.
	CallDelay units.Second
	// Cycles is the replacement's work per executed instruction.
	Cycles map[isa.Opcode]float64
}

// DefaultCycles is the per-opcode emulation work. Logic operations cost a
// handful of scalar instructions; VSQRTPD is two scalar sqrts; VPCLMULQDQ
// is the 64-step shift-xor loop; AESENC assumes the bit-sliced AES kernel
// amortised over a batch of blocks (§3.4), not the didactic per-byte
// S-box evaluation — this package's un-batched constant-time AESENC
// measures ≈9 000 cycles (see BenchmarkAESENCConstantTime), which is
// exactly why the paper prescribes bit-slicing for the emulation path.
var DefaultCycles = map[isa.Opcode]float64{
	isa.OpVOR:        6,
	isa.OpVXOR:       6,
	isa.OpVAND:       6,
	isa.OpVANDN:      6,
	isa.OpVPADDQ:     6,
	isa.OpVPSRAD:     10,
	isa.OpVPCMP:      12,
	isa.OpVPMAX:      12,
	isa.OpVSQRTPD:    60,
	isa.OpVPCLMULQDQ: 260,
	isa.OpAESENC:     800,
}

// NewCostModel returns a CostModel with the given call delay and the
// default per-opcode cycle counts.
func NewCostModel(callDelay units.Second) CostModel {
	cycles := make(map[isa.Opcode]float64, len(DefaultCycles))
	for op, c := range DefaultCycles {
		cycles[op] = c
	}
	return CostModel{CallDelay: callDelay, Cycles: cycles}
}

// Time returns the wall-clock cost of emulating op once with the core
// running at frequency f.
func (m CostModel) Time(op isa.Opcode, f units.Hertz) units.Second {
	work := m.Cycles[op]
	return m.CallDelay + units.TimeFor(work, f)
}
