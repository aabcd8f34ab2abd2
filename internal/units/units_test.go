package units

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVoltConversions(t *testing.T) {
	v := MilliVolts(-97)
	if !approx(float64(v), -0.097, 1e-12) {
		t.Errorf("MilliVolts(-97) = %v", float64(v))
	}
	if !approx(v.MilliVolts(), -97, 1e-9) {
		t.Errorf("MilliVolts() = %v", v.MilliVolts())
	}
	if got := v.String(); got != "-97 mV" {
		t.Errorf("String = %q", got)
	}
}

func TestHertzConversions(t *testing.T) {
	f := GHz(4.7)
	if f != Hertz(4.7e9) {
		t.Errorf("GHz(4.7) = %v", float64(f))
	}
	if !approx(f.GHz(), 4.7, 1e-12) {
		t.Errorf("GHz() = %v", f.GHz())
	}
	if MHz(500) != Hertz(5e8) {
		t.Error("MHz(500) wrong")
	}
	if got := f.String(); got != "4.70 GHz" {
		t.Errorf("String = %q", got)
	}
}

func TestSecondConversions(t *testing.T) {
	s := Microseconds(350)
	if !approx(float64(s), 350e-6, 1e-15) {
		t.Errorf("Microseconds(350) = %v", float64(s))
	}
	if !approx(s.Microseconds(), 350, 1e-9) {
		t.Errorf("Microseconds() = %v", s.Microseconds())
	}
	if Milliseconds(14) != Second(0.014) {
		t.Error("Milliseconds(14) wrong")
	}
}

func TestSecondString(t *testing.T) {
	cases := map[Second]string{
		2.5:     "2.500 s",
		0.014:   "14.000 ms",
		31e-6:   "31.000 µs",
		340e-9:  "340.0 ns",
		-350e-6: "-350.000 µs",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Second(%g).String() = %q, want %q", float64(s), got, want)
		}
	}
}

func TestEnergyAndCycles(t *testing.T) {
	if Energy(95, 2) != 190 {
		t.Error("Energy(95 W, 2 s) != 190 J")
	}
	if !approx(float64(TimeFor(3000, GHz(3))), 1e-6, 1e-18) {
		t.Errorf("TimeFor = %v", TimeFor(3000, GHz(3)))
	}
}

func TestCyclesTimeForInverse(t *testing.T) {
	// n cycles take TimeFor(n, f); that time at f is n cycles again.
	prop := func(rawN uint32, rawF uint16) bool {
		n := float64(rawN%1_000_000) + 1
		f := GHz(0.5 + float64(rawF%50)/10)
		back := float64(f) * float64(TimeFor(n, f))
		return approx(back, n, n*1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if got := Watt(93.25).String(); got != "93.25 W" {
		t.Errorf("Watt String = %q", got)
	}
	if got := Joule(1.5).String(); got != "1.500 J" {
		t.Errorf("Joule String = %q", got)
	}
	if got := Celsius(88).String(); got != "88.0 °C" {
		t.Errorf("Celsius String = %q", got)
	}
}
