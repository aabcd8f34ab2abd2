package cpu

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"suit/internal/isa"
	"suit/internal/msr"
	"suit/internal/units"
)

func newIdleMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(testConfig(testTrace(1000, 1)), pinnedBase{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteMSRInterlock(t *testing.T) {
	m := newIdleMachine(t)
	// Selecting the efficient curve before disabling must #GP (§3.2).
	err := m.WriteMSR(0, msr.SUITCurve, msr.CurveEfficient)
	if !errors.Is(err, ErrGP) {
		t.Fatalf("interlock returned %v, want #GP", err)
	}
	// Disable, then the same write succeeds.
	if err := m.WriteMSR(0, msr.SUITDisable, uint64(isa.FaultableMask)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMSR(0, msr.SUITCurve, msr.CurveEfficient); err != nil {
		t.Fatalf("efficient curve refused after disabling: %v", err)
	}
}

func TestWriteMSRDisableMaskValidation(t *testing.T) {
	m := newIdleMachine(t)
	// Disabling a background opcode is not architecturally allowed.
	bad := isa.MaskOf(isa.OpALU)
	if err := m.WriteMSR(0, msr.SUITDisable, uint64(bad)); !errors.Is(err, ErrGP) {
		t.Errorf("background-opcode mask accepted: %v", err)
	}
	// The faultable set plus IMUL is the allowed maximum.
	full := isa.FaultableMask.With(isa.OpIMUL)
	if err := m.WriteMSR(0, msr.SUITDisable, uint64(full)); err != nil {
		t.Errorf("full mask rejected: %v", err)
	}
}

func TestWriteMSRPartialDisableDropsEfficient(t *testing.T) {
	m := newIdleMachine(t)
	if err := m.WriteMSR(0, msr.SUITDisable, uint64(isa.FaultableMask)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMSR(0, msr.SUITCurve, msr.CurveEfficient); err != nil {
		t.Fatal(err)
	}
	// Re-enabling one instruction while on the efficient curve must not
	// leave the machine there.
	partial := isa.FaultableMask.Without(isa.OpAESENC)
	if err := m.WriteMSR(0, msr.SUITDisable, uint64(partial)); err != nil {
		t.Fatal(err)
	}
	if m.domains[0].target == ModeE {
		t.Error("machine still targets the efficient curve with AESENC enabled")
	}
}

func TestWriteMSRDeadline(t *testing.T) {
	m := newIdleMachine(t)
	if err := m.WriteMSR(0, msr.SUITDeadline, 30_000); err != nil { // 30 µs in ns
		t.Fatal(err)
	}
	d := m.domains[0]
	if math.Abs(float64(d.deadlineAt)-30e-6) > 1e-12 {
		t.Errorf("deadlineAt = %v, want 30 µs", d.deadlineAt)
	}
	if got, _ := m.ReadMSR(0, msr.SUITDeadline); got != 30_000 {
		t.Errorf("armed deadline reads %d, want 30000", got)
	}
	if err := m.WriteMSR(0, msr.SUITDeadline, 0); err != nil {
		t.Fatal(err)
	}
	if d.deadlineAt != 0 {
		t.Error("zero write did not disarm the timer")
	}
	if got, _ := m.ReadMSR(0, msr.SUITDeadline); got != 0 {
		t.Errorf("disarmed deadline reads %d", got)
	}
}

func TestWriteMSRBadCurveValueAndDomain(t *testing.T) {
	m := newIdleMachine(t)
	if err := m.WriteMSR(0, msr.SUITCurve, 7); !errors.Is(err, ErrGP) {
		t.Errorf("bogus curve value accepted: %v", err)
	}
	if err := m.WriteMSR(42, msr.SUITCurve, 0); !errors.Is(err, ErrGP) {
		t.Errorf("bogus domain accepted: %v", err)
	}
	if _, err := m.ReadMSR(42, msr.SUITCurve); !errors.Is(err, ErrGP) {
		t.Errorf("bogus domain read accepted: %v", err)
	}
}

func TestWriteMSRUnknownRegisterFaults(t *testing.T) {
	m := newIdleMachine(t)
	if err := m.WriteMSR(0, msr.Addr(0xBEEF), 1); !errors.Is(err, ErrGP) {
		t.Errorf("unknown MSR write: %v, want #GP", err)
	}
	if _, err := m.ReadMSR(0, msr.Addr(0xBEEF)); !errors.Is(err, ErrGP) {
		t.Errorf("unknown MSR read: %v, want #GP", err)
	}
	// The status registers are read-only.
	for _, a := range []msr.Addr{msr.IA32PerfStatus, msr.SUITDOCount} {
		if err := m.WriteMSR(0, a, 1); !errors.Is(err, ErrGP) {
			t.Errorf("write to read-only MSR %#x: %v, want #GP", uint32(a), err)
		}
	}
	// Known plain registers pass through.
	if err := m.WriteMSR(0, msr.IA32PerfCtl, msr.EncodePerfCtl(30)); err != nil {
		t.Errorf("plain register write failed: %v", err)
	}
}

// TestLegacyVoltOffsetCannotUndervolt: SUIT replaces the undervolting
// interface of MSR 0x150, so a write there, like one to PERF_CTL, is
// accepted and reads back raw but moves nothing: PERF_STATUS reads the
// same, and the run equals that of a machine that never saw the writes.
func TestLegacyVoltOffsetCannotUndervolt(t *testing.T) {
	cfg := testConfig(testTrace(10_000_000, 2, 2_000_000, 5_000_000))
	fv := fvLite{deadline: units.Microseconds(30)}
	plain, err := New(cfg, fv)
	if err != nil {
		t.Fatal(err)
	}
	written, err := New(cfg, fv)
	if err != nil {
		t.Fatal(err)
	}
	status, _ := written.ReadMSR(0, msr.IA32PerfStatus)
	for _, w := range []struct {
		addr msr.Addr
		v    uint64
	}{
		{msr.VoltOffset, msr.EncodeVoltOffset(-97)},
		{msr.IA32PerfCtl, msr.EncodePerfCtl(40)},
	} {
		if err := written.WriteMSR(0, w.addr, w.v); err != nil {
			t.Fatalf("write %#x: %v", uint32(w.addr), err)
		}
		if got, err := written.ReadMSR(0, w.addr); err != nil || got != w.v {
			t.Errorf("MSR %#x reads %#x (err %v), want the raw %#x", uint32(w.addr), got, err, w.v)
		}
		if got, _ := written.ReadMSR(0, msr.IA32PerfStatus); got != status {
			t.Errorf("write to %#x moved PERF_STATUS: %#x, was %#x", uint32(w.addr), got, status)
		}
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := written.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("legacy writes changed the run:\nwith:    %+v\nwithout: %+v", got, want)
	}
}

func TestReadMSRSynthesisedStatus(t *testing.T) {
	m := newIdleMachine(t)
	v, err := m.ReadMSR(0, msr.IA32PerfStatus)
	if err != nil {
		t.Fatal(err)
	}
	gotV := msr.DecodePerfStatusVolts(v)
	wantV := float64(m.Points().Base.V)
	if math.Abs(gotV-wantV) > 1.0/8192 {
		t.Errorf("PERF_STATUS voltage = %v, want %v", gotV, wantV)
	}
	// SUITDisable reads back the live hardware state.
	if got, _ := m.ReadMSR(0, msr.SUITDisable); got != 0 {
		t.Errorf("fresh machine reports disabled mask %#x", got)
	}
	if err := m.WriteMSR(0, msr.SUITDisable, uint64(isa.FaultableMask)); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadMSR(0, msr.SUITDisable); isa.DisableMask(got) != isa.FaultableMask {
		t.Errorf("disable readback = %#x", got)
	}
}

func TestWriteMSRConservativeAlwaysAllowed(t *testing.T) {
	m := newIdleMachine(t)
	if err := m.WriteMSR(0, msr.SUITCurve, msr.CurveConservative); err != nil {
		t.Fatalf("conservative curve refused: %v", err)
	}
}
