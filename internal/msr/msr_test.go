package msr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPerfCtlEncoding(t *testing.T) {
	for _, ratio := range []uint8{0, 8, 26, 47, 255} {
		v := EncodePerfCtl(ratio)
		if got := DecodePerfCtl(v); got != ratio {
			t.Errorf("ratio %d round trip = %d", ratio, got)
		}
	}
}

func TestPerfStatusEncoding(t *testing.T) {
	v := EncodePerfStatus(47, 1.174)
	if got := DecodePerfStatusRatio(v); got != 47 {
		t.Errorf("ratio = %d", got)
	}
	if got := DecodePerfStatusVolts(v); math.Abs(got-1.174) > 1.0/8192 {
		t.Errorf("volts = %v", got)
	}
}

func TestVoltOffsetEncoding(t *testing.T) {
	for _, mv := range []float64{0, -50, -70, -97, -250, 100} {
		enc := EncodeVoltOffset(mv)
		got := DecodeVoltOffset(enc)
		if math.Abs(got-mv) > 1 { // 1/1.024 mV quantum
			t.Errorf("offset %v mV round trip = %v", mv, got)
		}
	}
}

func TestVoltOffsetEncodingProperty(t *testing.T) {
	prop := func(raw int16) bool {
		mv := float64(raw % 500) // ±500 mV, within the 11-bit field
		got := DecodeVoltOffset(EncodeVoltOffset(mv))
		return math.Abs(got-mv) <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCurveConstants(t *testing.T) {
	if CurveConservative != 0 || CurveEfficient != 1 {
		t.Error("curve constants changed; MSR ABI is fixed")
	}
}
