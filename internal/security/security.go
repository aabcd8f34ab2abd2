// Package security implements the paper's security evaluation (§6.9): the
// reductionist argument that SUIT's efficient curve is exactly as safe as
// today's vendor curves for the reduced instruction set, an executable
// undervolting fault-attack scenario in the style of Plundervolt/V0LTpwn
// (software-induced faults in victim computations), and the runtime
// invariant check that no SUIT configuration ever executes a faultable
// instruction below its required voltage.
package security

import (
	"errors"
	"fmt"

	"suit/internal/cpu"
	"suit/internal/dvfs"
	"suit/internal/emul"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/strategy"
	"suit/internal/trace"
	"suit/internal/units"
)

// VerifyNoFaults checks the runtime safety invariant on a finished run.
func VerifyNoFaults(res cpu.Result) error {
	if n := len(res.Faults); n > 0 {
		f := res.Faults[0]
		return fmt.Errorf("security: %d silent faults; first: %v on core %d at %v (%v below margin)",
			n, f.Op, f.Core, f.T, f.Margin)
	}
	return nil
}

// CheckReduction performs the §6.9 curve-determination equivalence check:
// with the disabled set excluded, every *enabled* instruction must retain
// a non-negative margin at the efficient offset — the same guarantee the
// vendor provides for the conservative curve over the full ISA. It
// returns the violating opcodes, empty when the reduction holds.
func CheckReduction(m *guardband.Model, disabled isa.DisableMask, offset units.Volt, hardenedIMUL bool) []isa.Opcode {
	var bad []isa.Opcode
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if op == isa.OpNop || disabled.Has(op) {
			continue
		}
		if m.Faults(op, offset, hardenedIMUL) {
			bad = append(bad, op)
		}
	}
	return bad
}

// AttackOutcome describes one configuration of the fault-attack scenario.
type AttackOutcome struct {
	Config string
	// Faults is the number of silent corruptions the attacker induced in
	// the victim computation.
	Faults int
	// Exceptions is how many times SUIT trapped the attack instructions.
	Exceptions int
	// WrongResult reports whether the victim's AES computation actually
	// produced an incorrect ciphertext (checked against the reference).
	WrongResult bool
}

// AttackReport compares the attack on three machines: today's CPU at
// nominal voltage (safe, inefficient), a pre-SUIT CPU blindly undervolted
// (the Plundervolt scenario — the attack succeeds), and a SUIT CPU on the
// efficient curve (the attack is trapped).
type AttackReport struct {
	Nominal AttackOutcome
	Unsafe  AttackOutcome
	SUIT    AttackOutcome
}

// attackTrace builds the victim instruction stream: an RSA/AES-style
// computation repeatedly executing AESENC (the fault-attack target used
// against SGX enclaves) embedded in background work.
func attackTrace(total uint64, seed uint64) (*trace.Trace, error) {
	return trace.Generate(trace.Spec{
		Name: "victim-aes", Total: total, IPC: 2, Seed: seed,
		Sources: []trace.Source{
			trace.Burst{Op: isa.OpAESENC, MeanBurstLen: 400, IntraGap: 30,
				QuietMedian: 2e6, QuietSigma: 0.6},
		},
	})
}

// RunAttack executes the three-way attack comparison on the given chip at
// the given (negative) undervolt offset.
func RunAttack(chip dvfs.Chip, offset units.Volt, seed uint64) (AttackReport, error) {
	if offset >= 0 {
		return AttackReport{}, errors.New("security: attack needs a negative undervolt offset")
	}
	gb := guardband.Default()
	const total = 50_000_000

	runOne := func(kind string) (AttackOutcome, error) {
		tr, err := attackTrace(total, seed)
		if err != nil {
			return AttackOutcome{}, err
		}
		cfg := cpu.Config{
			Chip:           chip,
			Traces:         []*trace.Trace{tr},
			Offset:         offset,
			Faults:         gb,
			ExceptionDelay: chip.ExceptionDelay,
			Emul:           emul.NewCostModel(chip.EmulCallDelay),
			Seed:           seed,
		}
		var strat cpu.Strategy
		switch kind {
		case "nominal":
			cfg.HardenedIMUL = false
			strat = strategy.Pinned{M: cpu.ModeBase}
		case "unsafe":
			cfg.HardenedIMUL = false
			cfg.AllowUnsafe = true
			strat = strategy.Pinned{M: cpu.ModeE}
		case "suit":
			cfg.HardenedIMUL = true
			strat = strategy.FV{P: strategy.ParamsAC()}
		}
		m, err := cpu.New(cfg, strat)
		if err != nil {
			return AttackOutcome{}, err
		}
		res, err := m.Run()
		if err != nil {
			return AttackOutcome{}, err
		}
		out := AttackOutcome{Config: kind, Faults: len(res.Faults), Exceptions: res.Exceptions}
		// Make the corruption concrete: replay the victim's AES block
		// with bit flips wherever the monitor recorded a fault.
		out.WrongResult = corruptedAES(len(res.Faults) > 0)
		return out, nil
	}

	var rep AttackReport
	var err error
	if rep.Nominal, err = runOne("nominal"); err != nil {
		return rep, err
	}
	if rep.Unsafe, err = runOne("unsafe"); err != nil {
		return rep, err
	}
	if rep.SUIT, err = runOne("suit"); err != nil {
		return rep, err
	}
	return rep, nil
}

// corruptedAES demonstrates what an undervolting fault does to a victim:
// a single-bit flip in the round computation yields a wrong ciphertext,
// which differential fault analysis turns into key recovery (the attacks
// of §1). It returns whether the faulty result differs from the correct
// one — true whenever a fault occurred.
func corruptedAES(faulted bool) bool {
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	block := [16]byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
	good := emul.EncryptAES128(key, block)
	if !faulted {
		return false
	}
	// The fault model: one round's state latches a wrong bit.
	rk := emul.ExpandKeyAES128(key)
	state := emul.VXOR(emul.FromBytes(block), rk[0])
	for r := 1; r <= 9; r++ {
		state = emul.AESENC(state, rk[r])
		if r == 5 {
			state.Lo ^= 1 << 17 // the undervolting-induced bit flip
		}
	}
	state = emul.AESENCLAST(state, rk[10])
	return state.Bytes() != good
}
