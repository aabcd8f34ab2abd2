// Package strategy implements the operating strategies of §4.3: the OS
// policies that drive SUIT's hardware through the Disabled Opcode
// exception and deadline-timer interrupts. FV is a direct port of the
// paper's Listing 1 (the fV strategy with thrashing prevention); FreqOnly
// and VoltOnly are the single-knob variants; Emulation resolves every trap
// in software (§3.4); Dynamic picks between emulation and curve switching
// at runtime (§6.8); Pinned and AlwaysEfficient provide the baseline and
// noSIMD configurations.
package strategy

import (
	"errors"
	"fmt"

	"suit/internal/cpu"
	"suit/internal/isa"
	"suit/internal/units"
)

// Params are the four tuning knobs of the fV strategy and thrashing
// prevention (§4.3): the deadline p_dl, the look-back time span p_ts, the
// exception-count threshold p_ec, and the deadline factor p_df.
type Params struct {
	Deadline       units.Second // p_dl
	TimeSpan       units.Second // p_ts
	MaxExceptions  int          // p_ec
	DeadlineFactor float64      // p_df
}

// ParamsAC returns the optimal parameters for CPUs 𝒜 and 𝒞 (Table 7).
func ParamsAC() Params {
	return Params{
		Deadline:       units.Microseconds(30),
		TimeSpan:       units.Microseconds(450),
		MaxExceptions:  3,
		DeadlineFactor: 14,
	}
}

// ParamsB returns the optimal parameters for CPU ℬ (Table 7), whose slow
// frequency changes need a far longer deadline.
func ParamsB() Params {
	return Params{
		Deadline:       units.Microseconds(700),
		TimeSpan:       units.Milliseconds(14),
		MaxExceptions:  4,
		DeadlineFactor: 9,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Deadline <= 0 {
		return fmt.Errorf("strategy: deadline %v must be positive", p.Deadline)
	}
	if p.TimeSpan <= 0 {
		return fmt.Errorf("strategy: time span %v must be positive", p.TimeSpan)
	}
	if p.MaxExceptions < 1 {
		return errors.New("strategy: max exceptions must be ≥ 1")
	}
	if p.DeadlineFactor < 1 {
		return errors.New("strategy: deadline factor must be ≥ 1")
	}
	return nil
}

// arm sets the deadline, stretched by the deadline factor when thrashing
// is detected (Listing 1 lines 10–14).
func (p Params) arm(ctl cpu.Controller, domain int) {
	d := p.Deadline
	if ctl.ExceptionsWithin(domain, p.TimeSpan) >= p.MaxExceptions {
		d = units.Second(float64(d) * p.DeadlineFactor)
	}
	ctl.ArmDeadline(domain, d)
}

// initEfficient is the common boot sequence: disable the faultable set,
// then select the efficient curve (the hardware refuses the reverse
// order, §3.2).
func initEfficient(ctl cpu.Controller) {
	for dom := 0; dom < ctl.Domains(); dom++ {
		ctl.DisableInstructions(dom)
		ctl.RequestAsync(dom, cpu.ModeE)
	}
}

// FV is the combined frequency+voltage strategy (Listing 1):
// E → Cf (fast frequency drop) → Cv (voltage catches up, frequency
// restored) → E on deadline expiry.
type FV struct {
	P Params
}

// Init implements cpu.Strategy.
func (FV) Init(ctl cpu.Controller) { initEfficient(ctl) }

// OnDisabledOpcode implements cpu.Strategy — Listing 1's
// disabled_instruction_exception_handler.
func (s FV) OnDisabledOpcode(ctl cpu.Controller, domain, core int, op isa.Opcode) {
	// Wait for the fast frequency switch to the conservative curve...
	ctl.RequestWait(domain, cpu.ModeCf)
	// ...and request the voltage change in the background.
	ctl.RequestAsync(domain, cpu.ModeCv)
	ctl.EnableInstructions(domain)
	s.P.arm(ctl, domain)
}

// OnDeadline implements cpu.Strategy — Listing 1's timer_interrupt_handler.
func (FV) OnDeadline(ctl cpu.Controller, domain int) {
	ctl.DisableInstructions(domain)
	ctl.RequestAsync(domain, cpu.ModeE)
}

// FreqOnly is the frequency-only strategy (E ↔ Cf): fast and very
// efficient — the voltage never rises — at the cost of running slower
// while on the conservative curve. CPU ℬ, with per-core frequency domains
// but a single voltage plane, can only use this or emulation.
type FreqOnly struct {
	P Params
}

// Init implements cpu.Strategy.
func (FreqOnly) Init(ctl cpu.Controller) { initEfficient(ctl) }

// OnDisabledOpcode implements cpu.Strategy.
func (s FreqOnly) OnDisabledOpcode(ctl cpu.Controller, domain, core int, op isa.Opcode) {
	ctl.RequestWait(domain, cpu.ModeCf)
	ctl.EnableInstructions(domain)
	s.P.arm(ctl, domain)
}

// OnDeadline implements cpu.Strategy.
func (FreqOnly) OnDeadline(ctl cpu.Controller, domain int) {
	ctl.DisableInstructions(domain)
	ctl.RequestAsync(domain, cpu.ModeE)
}

// VoltOnly is the voltage-only strategy (E ↔ Cv): an order of magnitude
// slower to engage (the trap blocks for the full voltage settle time) but
// full-speed once on the conservative curve.
type VoltOnly struct {
	P Params
}

// Init implements cpu.Strategy.
func (VoltOnly) Init(ctl cpu.Controller) { initEfficient(ctl) }

// OnDisabledOpcode implements cpu.Strategy.
func (s VoltOnly) OnDisabledOpcode(ctl cpu.Controller, domain, core int, op isa.Opcode) {
	ctl.RequestWait(domain, cpu.ModeCv)
	ctl.EnableInstructions(domain)
	s.P.arm(ctl, domain)
}

// OnDeadline implements cpu.Strategy.
func (VoltOnly) OnDeadline(ctl cpu.Controller, domain int) {
	ctl.DisableInstructions(domain)
	ctl.RequestAsync(domain, cpu.ModeE)
}

// Emulation resolves every trap in software (§3.4): the CPU never leaves
// the efficient curve; each disabled instruction costs the emulation-call
// delay plus the replacement's work. Not possible inside TEEs.
type Emulation struct{}

// Init implements cpu.Strategy.
func (Emulation) Init(ctl cpu.Controller) { initEfficient(ctl) }

// OnDisabledOpcode implements cpu.Strategy.
func (Emulation) OnDisabledOpcode(ctl cpu.Controller, domain, core int, op isa.Opcode) {
	ctl.Emulate(op)
}

// OnDeadline implements cpu.Strategy.
func (Emulation) OnDeadline(cpu.Controller, int) {
	panic("strategy: emulation never arms the deadline timer")
}

// Dynamic combines emulation and fV (§6.8: "SUIT could dynamically switch
// between Cv and e for highest efficiency"): an isolated trap — nothing
// else within the look-back window — is emulated on the spot, keeping the
// efficient curve; clustered traps indicate a burst and engage the fV
// switching machinery.
type Dynamic struct {
	P Params
}

// dynEmulateBelow is the exception count within Params.TimeSpan up to
// which Dynamic emulates traps rather than switching curves: 1, only
// isolated traps (the trap being handled counts).
const dynEmulateBelow = 1

// Init implements cpu.Strategy.
func (Dynamic) Init(ctl cpu.Controller) { initEfficient(ctl) }

// OnDisabledOpcode implements cpu.Strategy.
func (s Dynamic) OnDisabledOpcode(ctl cpu.Controller, domain, core int, op isa.Opcode) {
	if ctl.Mode(domain) == cpu.ModeE && ctl.ExceptionsWithin(domain, s.P.TimeSpan) <= dynEmulateBelow {
		ctl.Emulate(op)
		return
	}
	s.fv().OnDisabledOpcode(ctl, domain, core, op)
}

// OnDeadline implements cpu.Strategy.
func (s Dynamic) OnDeadline(ctl cpu.Controller, domain int) {
	s.fv().OnDeadline(ctl, domain)
}

// FV conversion helper for Dynamic.
func (s Dynamic) fv() FV { return FV{P: s.P} }

// Pinned runs the whole workload at a fixed operating point with the
// faultable instructions enabled: ModeBase is the pre-SUIT baseline every
// comparison normalises to; ModeE on a machine with AllowUnsafe models
// insecure blind undervolting (the attack scenario of §6.9).
type Pinned struct {
	M cpu.Mode
}

// Init implements cpu.Strategy.
func (p Pinned) Init(ctl cpu.Controller) {
	for dom := 0; dom < ctl.Domains(); dom++ {
		if p.M != cpu.ModeBase {
			ctl.RequestAsync(dom, p.M)
		}
	}
}

// OnDisabledOpcode implements cpu.Strategy.
func (p Pinned) OnDisabledOpcode(cpu.Controller, int, int, isa.Opcode) {
	panic("strategy: pinned configuration took a #DO trap; nothing is disabled")
}

// OnDeadline implements cpu.Strategy.
func (p Pinned) OnDeadline(cpu.Controller, int) {
	panic("strategy: pinned configuration armed no deadline")
}

// AlwaysEfficient is the noSIMD configuration (§6.7): the workload was
// recompiled without the faultable instructions, so the machine disables
// them and stays on the efficient curve for the whole run. A trap means
// the trace was not actually SIMD-free and is a configuration error.
type AlwaysEfficient struct{}

// Init implements cpu.Strategy.
func (AlwaysEfficient) Init(ctl cpu.Controller) { initEfficient(ctl) }

// OnDisabledOpcode implements cpu.Strategy.
func (AlwaysEfficient) OnDisabledOpcode(cpu.Controller, int, int, isa.Opcode) {
	panic("strategy: noSIMD trace contained a faultable instruction")
}

// OnDeadline implements cpu.Strategy.
func (AlwaysEfficient) OnDeadline(cpu.Controller, int) {
	panic("strategy: noSIMD configuration armed no deadline")
}
