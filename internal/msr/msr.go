// Package msr models the model-specific-register interface through which
// the OS half of SUIT drives the hardware half: the existing DVFS MSRs the
// paper measures with (IA32_PERF_CTL/STATUS, the undocumented voltage-
// offset MSR 0x150, APERF/MPERF), and the three new architectural MSRs
// SUIT introduces (§3.2, §3.3): opcode disable, curve select and the
// deadline timer.
//
// The package holds the addresses and field encodings only. The register
// values live in the CPU simulator's domain state, and its WRMSR/RDMSR
// front-end (cpu.Machine.WriteMSR/ReadMSR) decodes writes onto that state
// and computes reads from it, so there is no second copy to keep in step.
package msr

// Addr is an MSR address.
type Addr uint32

// Architectural MSRs used by the paper's measurements, plus the SUIT MSRs.
const (
	// IA32MPerf counts at a fixed reference rate; IA32APerf counts at the
	// actual core clock. Their ratio yields the effective frequency
	// (§5.2 measures frequency-change delays this way).
	IA32MPerf Addr = 0xE7
	IA32APerf Addr = 0xE8
	// IA32PerfStatus reports the current p-state; bits 47:32 hold the
	// core voltage in 1/8192 V units on Intel parts (§5.5 reads it).
	IA32PerfStatus Addr = 0x198
	// IA32PerfCtl requests a p-state; bits 15:8 hold the target ratio
	// (multiples of the 100 MHz bus clock).
	IA32PerfCtl Addr = 0x199
	// VoltOffset is the undocumented Intel MSR 0x150 used for per-plane
	// voltage offsets (the paper's undervolting knob on client CPUs).
	VoltOffset Addr = 0x150

	// SUIT MSRs (new architectural state proposed by the paper).
	// SUITDisable holds the opcode disable mask; a set bit makes the
	// corresponding opcode raise #DO.
	SUITDisable Addr = 0x1500
	// SUITCurve selects the DVFS curve: 0 conservative, 1 efficient.
	// Hardware refuses the efficient curve while SUITDisable is zero.
	SUITCurve Addr = 0x1501
	// SUITDeadline arms the count-down deadline timer, in nanosecond
	// ticks; writing zero disarms it, and it reads zero once disarmed or
	// fired.
	SUITDeadline Addr = 0x1502
	// SUITDOCount counts #DO exceptions since reset (diagnostics and the
	// thrashing-prevention window in software use it). It is read-only.
	SUITDOCount Addr = 0x1503
)

// CurveConservative and CurveEfficient are the SUITCurve values.
const (
	CurveConservative uint64 = 0
	CurveEfficient    uint64 = 1
)

// --- Field encodings ---

// EncodePerfCtl packs a frequency ratio (multiples of 100 MHz) into
// IA32PerfCtl format (bits 15:8).
func EncodePerfCtl(ratio uint8) uint64 { return uint64(ratio) << 8 }

// DecodePerfCtl extracts the requested ratio from an IA32PerfCtl value.
func DecodePerfCtl(v uint64) uint8 { return uint8(v >> 8) }

// EncodePerfStatus packs ratio (bits 15:8) and core voltage in 1/8192 V
// units (bits 47:32) into IA32PerfStatus format.
func EncodePerfStatus(ratio uint8, volts float64) uint64 {
	vu := uint64(volts*8192+0.5) & 0xFFFF
	return uint64(ratio)<<8 | vu<<32
}

// DecodePerfStatusVolts extracts the core voltage in volts.
func DecodePerfStatusVolts(v uint64) float64 {
	return float64((v>>32)&0xFFFF) / 8192
}

// DecodePerfStatusRatio extracts the current ratio.
func DecodePerfStatusRatio(v uint64) uint8 { return uint8(v >> 8) }

// EncodeVoltOffset packs a signed voltage offset in millivolts into the
// MSR 0x150 style: an 11-bit two's-complement field in 1/1024 V units at
// bits 31:21 (plane and command fields are not modelled).
func EncodeVoltOffset(milliVolts float64) uint64 {
	steps := int64(milliVolts*1.024 + sign(milliVolts)*0.5) // round to nearest
	return uint64(steps&0x7FF) << 21
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// DecodeVoltOffset extracts the offset in millivolts.
func DecodeVoltOffset(v uint64) float64 {
	raw := int64(v>>21) & 0x7FF
	if raw&0x400 != 0 { // sign-extend 11 bits
		raw -= 0x800
	}
	return float64(raw) / 1.024
}
