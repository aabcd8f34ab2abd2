package cpu

import (
	"errors"
	"fmt"
	"math"

	"suit/internal/isa"
	"suit/internal/msr"
	"suit/internal/units"
)

// This file implements the architectural MSR interface of §3.2/§3.3 — the
// way a real OS would program SUIT. It holds no register state of its
// own: WRMSR decodes each SUIT write onto the Controller operations
// strategies call, at the machine clock, and RDMSR computes each SUIT
// register from the domain state those operations change. The two
// interfaces therefore share every effect, including the §3.2 interlock
// (see refusesEfficient in controller.go), which WRMSR reports as #GP.
//
// The front-end targets machine configuration *between* runs (tooling,
// tests, interactive exploration); during a simulation the strategy hooks
// remain the OS.

// ErrGP is the general-protection fault WRMSR raises for an illegal write.
var ErrGP = errors.New("cpu: #GP")

// legacyMSRs are the pre-SUIT registers the front-end implements. They
// keep their raw writes and move nothing: in particular the voltage-offset
// MSR 0x150 cannot undervolt a SUIT part, whose curve is selected only
// through msr.SUITCurve.
var legacyMSRs = [...]msr.Addr{msr.IA32MPerf, msr.IA32APerf, msr.IA32PerfCtl, msr.VoltOffset}

// legacyIndex returns addr's slot in domain.legacy, or -1.
func legacyIndex(addr msr.Addr) int {
	for i, a := range legacyMSRs {
		if a == addr {
			return i
		}
	}
	return -1
}

// WriteMSR performs a WRMSR on the domain with SUIT semantics, applied at
// the machine clock:
//
//   - msr.SUITDisable — value is the opcode disable mask; only the
//     faultable set (and optionally IMUL) may be disabled. A mask covering
//     the faultable set disables it; any other mask enables it.
//   - msr.SUITCurve — CurveConservative requests Cv; CurveEfficient
//     requests E, or raises #GP where the interlock refuses it (§3.2: "the
//     CPU ensures that the efficient curve can only be used if the
//     faultable instructions are disabled").
//   - msr.SUITDeadline — arms the deadline timer, in nanosecond ticks;
//     zero disarms.
//
// The legacy registers accept raw writes. msr.IA32PerfStatus and
// msr.SUITDOCount are read-only, and unknown registers fault.
func (m *Machine) WriteMSR(domainID int, addr msr.Addr, value uint64) error {
	if domainID < 0 || domainID >= len(m.domains) {
		return fmt.Errorf("%w: no domain %d", ErrGP, domainID)
	}
	d := m.domains[domainID]
	m.handlerTime = m.now
	ctl := controller{m}
	switch addr {
	case msr.SUITDisable:
		mask := isa.DisableMask(value)
		if mask&^isa.FaultableMask.With(isa.OpIMUL) != 0 {
			return fmt.Errorf("%w: mask %#x disables non-faultable opcodes", ErrGP, value)
		}
		if mask&isa.FaultableMask == isa.FaultableMask {
			ctl.DisableInstructions(domainID)
		} else {
			ctl.EnableInstructions(domainID)
		}
	case msr.SUITCurve:
		switch value {
		case msr.CurveConservative:
			ctl.RequestAsync(domainID, ModeCv)
		case msr.CurveEfficient:
			if m.refusesEfficient(d) {
				return fmt.Errorf("%w: efficient curve with faultable instructions enabled", ErrGP)
			}
			ctl.RequestAsync(domainID, ModeE)
		default:
			return fmt.Errorf("%w: SUITCurve value %d", ErrGP, value)
		}
	case msr.SUITDeadline:
		if value == 0 {
			ctl.DisarmDeadline(domainID)
		} else {
			ctl.ArmDeadline(domainID, units.Second(float64(value)*1e-9))
		}
	case msr.IA32PerfStatus, msr.SUITDOCount:
		return fmt.Errorf("%w: MSR %#x is read-only", ErrGP, uint32(addr))
	default:
		i := legacyIndex(addr)
		if i < 0 {
			return fmt.Errorf("%w: unknown MSR %#x", ErrGP, uint32(addr))
		}
		d.legacy[i] = value
	}
	return nil
}

// ReadMSR performs a RDMSR on the domain. Every SUIT register and
// msr.IA32PerfStatus is computed from live domain state; the legacy
// registers read back their last raw write.
func (m *Machine) ReadMSR(domainID int, addr msr.Addr) (uint64, error) {
	if domainID < 0 || domainID >= len(m.domains) {
		return 0, fmt.Errorf("%w: no domain %d", ErrGP, domainID)
	}
	d := m.domains[domainID]
	switch addr {
	case msr.IA32PerfStatus:
		ratio := uint8(d.freq.GHz() * 10)
		return msr.EncodePerfStatus(ratio, float64(d.voltAt(m.now))), nil
	case msr.SUITDisable:
		if d.disabled {
			return uint64(isa.FaultableMask), nil
		}
		return 0, nil
	case msr.SUITCurve:
		if d.target == ModeE {
			return msr.CurveEfficient, nil
		}
		return msr.CurveConservative, nil
	case msr.SUITDeadline:
		if d.deadlineAt == 0 {
			return 0, nil
		}
		return uint64(math.Round(float64(d.deadlineDur) * 1e9)), nil
	case msr.SUITDOCount:
		return d.excTotal, nil
	}
	i := legacyIndex(addr)
	if i < 0 {
		return 0, fmt.Errorf("%w: unknown MSR %#x", ErrGP, uint32(addr))
	}
	return d.legacy[i], nil
}
