package security

import (
	"testing"

	"suit/internal/cpu"
	"suit/internal/dvfs"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/units"
)

func TestVerifyNoFaults(t *testing.T) {
	if err := VerifyNoFaults(cpu.Result{}); err != nil {
		t.Errorf("clean result rejected: %v", err)
	}
	res := cpu.Result{Faults: []cpu.FaultRecord{{Op: isa.OpAESENC, Core: 2}}}
	if err := VerifyNoFaults(res); err == nil {
		t.Error("faulty result accepted")
	}
}

func TestCheckReductionHoldsForSUITConfiguration(t *testing.T) {
	// The SUIT design point: faultable set disabled, hardened IMUL,
	// −97 mV — every enabled instruction keeps its margin.
	gb := guardband.Default()
	off := gb.EfficientOffset(isa.FaultableMask, true, true)
	if bad := CheckReduction(gb, isa.FaultableMask, off, true); len(bad) != 0 {
		t.Errorf("reduction violated by %v", bad)
	}
}

func TestCheckReductionFailsWithoutDisabling(t *testing.T) {
	// Same offset without disabling anything: the faultable set and the
	// stock IMUL violate their margins — today's CPUs cannot run here.
	gb := guardband.Default()
	off := gb.EfficientOffset(isa.FaultableMask, true, true)
	bad := CheckReduction(gb, 0, off, false)
	if len(bad) == 0 {
		t.Fatal("blind undervolting passed the reduction check")
	}
	// IMUL (unhardened) must be among the violators — it faults first.
	found := false
	for _, op := range bad {
		if op == isa.OpIMUL {
			found = true
		}
	}
	if !found {
		t.Errorf("IMUL missing from violators %v", bad)
	}
}

func TestCheckReductionFailsWithUnhardenedIMUL(t *testing.T) {
	// Disabling the faultable set is not enough: the 3-cycle IMUL still
	// faults, which is why SUIT hardens it statically (§4.2).
	gb := guardband.Default()
	off := gb.EfficientOffset(isa.FaultableMask, true, false)
	bad := CheckReduction(gb, isa.FaultableMask, off, false)
	if len(bad) != 1 || bad[0] != isa.OpIMUL {
		t.Errorf("violators = %v, want exactly [IMUL]", bad)
	}
}

func TestRunAttackThreeWay(t *testing.T) {
	rep, err := RunAttack(dvfs.IntelI9_9900K(), units.MilliVolts(-97), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Today's CPU at nominal voltage: safe, no traps.
	if rep.Nominal.Faults != 0 || rep.Nominal.Exceptions != 0 || rep.Nominal.WrongResult {
		t.Errorf("nominal config unsafe: %+v", rep.Nominal)
	}
	// Blind undervolting: the attack induces silent faults and the AES
	// result is wrong — Plundervolt.
	if rep.Unsafe.Faults == 0 || !rep.Unsafe.WrongResult {
		t.Errorf("unsafe config did not fault: %+v", rep.Unsafe)
	}
	if rep.Unsafe.Exceptions != 0 {
		t.Errorf("pre-SUIT CPU trapped: %+v", rep.Unsafe)
	}
	// SUIT: same undervolt, the attack instructions trap instead of
	// faulting; the computation stays correct.
	if rep.SUIT.Faults != 0 || rep.SUIT.WrongResult {
		t.Errorf("SUIT config faulted: %+v", rep.SUIT)
	}
	if rep.SUIT.Exceptions == 0 {
		t.Errorf("SUIT never trapped the attack: %+v", rep.SUIT)
	}
}

func TestRunAttackRejectsPositiveOffset(t *testing.T) {
	if _, err := RunAttack(dvfs.IntelI9_9900K(), units.MilliVolts(5), 1); err == nil {
		t.Error("positive offset accepted")
	}
}

func TestSweepOffsetsMonotoneSafety(t *testing.T) {
	offs := []units.Volt{
		units.MilliVolts(-20), units.MilliVolts(-50),
		units.MilliVolts(-97), units.MilliVolts(-140),
	}
	unsafe := make([]int, len(offs))
	for i, off := range offs {
		rep, err := RunAttack(dvfs.IntelI9_9900K(), off, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SUIT.Faults != 0 {
			t.Errorf("SUIT faulted at %v", off)
		}
		unsafe[i] = rep.Unsafe.Faults
	}
	// Shallow undervolts stay within the AESENC margin (27 mV); deeper
	// ones fault on the unsafe machine.
	if unsafe[0] != 0 {
		t.Errorf("unsafe machine faulted at −20 mV, inside the AESENC margin")
	}
	if unsafe[2] == 0 || unsafe[3] == 0 {
		t.Error("unsafe machine survived deep undervolts")
	}
}

func TestCorruptedAESDiffers(t *testing.T) {
	if corruptedAES(false) {
		t.Error("fault-free AES differs from reference")
	}
	if !corruptedAES(true) {
		t.Error("bit-flipped AES matches the correct ciphertext")
	}
}
