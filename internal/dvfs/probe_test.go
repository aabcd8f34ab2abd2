package dvfs

import (
	"math"
	"testing"

	"suit/internal/units"
)

func det() func() float64 { return func() float64 { return 0 } }

func i9States() (lo, hi PState) {
	c := IntelI9_9900K().Vendor
	lo, _ = c.StateAt(40)
	hi, _ = c.StateAt(47)
	return lo, hi
}

func TestPlanFreqOnly(t *testing.T) {
	m := IntelI9_9900K().Transition
	lo, hi := i9States()
	from := PState{Ratio: lo.Ratio, F: lo.F, V: hi.V} // same voltage
	to := PState{Ratio: hi.Ratio, F: hi.F, V: hi.V}
	tr := m.Plan(from, to, det())
	if tr.VoltDone != 0 || tr.VoltStart != 0 {
		t.Errorf("freq-only transition has voltage phase: %+v", tr)
	}
	if tr.FreqDone != m.FreqDelay {
		t.Errorf("FreqDone = %v, want %v", tr.FreqDone, m.FreqDelay)
	}
	if got := tr.FreqDone - tr.StallStart; math.Abs(float64(got-m.FreqStall)) > 1e-12 {
		t.Errorf("stall window = %v, want %v", got, m.FreqStall)
	}
	if tr.End != m.FreqDelay {
		t.Errorf("End = %v", tr.End)
	}
}

func TestPlanVoltOnly(t *testing.T) {
	m := IntelI9_9900K().Transition
	lo, hi := i9States()
	from := PState{Ratio: lo.Ratio, F: lo.F, V: lo.V}
	to := PState{Ratio: lo.Ratio, F: lo.F, V: hi.V}
	tr := m.Plan(from, to, det())
	if tr.FreqDone != 0 {
		t.Errorf("volt-only transition has frequency phase: %+v", tr)
	}
	if tr.VoltDone != m.VoltDelay || tr.End != m.VoltDelay {
		t.Errorf("VoltDone = %v End = %v, want %v", tr.VoltDone, tr.End, m.VoltDelay)
	}
	if tr.StalledAt(tr.VoltDone / 2) {
		t.Error("voltage change must not stall the core")
	}
}

func TestPlanVoltFirstSequence(t *testing.T) {
	// Xeon: voltage settles, then frequency changes with a stall (Fig 11).
	m := XeonSilver4208().Transition
	c := XeonSilver4208().Vendor
	from, to := c.Min(), c.Top()
	tr := m.Plan(from, to, det())
	if tr.VoltDone != m.VoltDelay {
		t.Errorf("VoltDone = %v, want %v", tr.VoltDone, m.VoltDelay)
	}
	if tr.FreqDone != m.VoltDelay+m.FreqDelay {
		t.Errorf("FreqDone = %v, want voltage+frequency sequence", tr.FreqDone)
	}
	if tr.StallStart < tr.VoltDone {
		t.Error("stall began before the voltage settled")
	}
	// During the voltage phase the core still runs at the old frequency.
	if tr.FrequencyAt(m.VoltDelay/2) != from.F {
		t.Error("frequency changed during voltage phase")
	}
	if tr.StalledAt(m.VoltDelay / 2) {
		t.Error("core stalled during voltage phase")
	}
}

func TestPlanConcurrentBothOnIndependentPlanes(t *testing.T) {
	m := IntelI9_9900K().Transition // VoltFirst = false
	lo, hi := i9States()
	tr := m.Plan(lo, hi, det())
	if tr.FreqDone != m.FreqDelay {
		t.Errorf("concurrent FreqDone = %v, want %v", tr.FreqDone, m.FreqDelay)
	}
	if tr.VoltDone != m.VoltDelay {
		t.Errorf("concurrent VoltDone = %v, want %v", tr.VoltDone, m.VoltDelay)
	}
	if tr.End != m.VoltDelay { // voltage is slower on 𝒜
		t.Errorf("End = %v, want %v", tr.End, m.VoltDelay)
	}
}

func TestPlanNoChange(t *testing.T) {
	m := IntelI9_9900K().Transition
	lo, _ := i9States()
	tr := m.Plan(lo, lo, det())
	if tr.End != 0 || tr.FreqDone != 0 || tr.VoltDone != 0 {
		t.Errorf("no-op transition has phases: %+v", tr)
	}
	if tr.VoltageAt(0) != lo.V || tr.FrequencyAt(0) != lo.F {
		t.Error("no-op transition changed operating point")
	}
}

func TestVoltageRampIsLinearAndMonotone(t *testing.T) {
	m := IntelI9_9900K().Transition
	lo, hi := i9States()
	from := PState{Ratio: lo.Ratio, F: lo.F, V: lo.V}
	to := PState{Ratio: lo.Ratio, F: lo.F, V: hi.V}
	tr := m.Plan(from, to, det())
	if tr.VoltageAt(-1) != from.V {
		t.Error("voltage before start wrong")
	}
	if tr.VoltageAt(tr.VoltDone+1e-9) != to.V {
		t.Error("voltage after settle wrong")
	}
	mid := tr.VoltageAt(tr.VoltDone / 2)
	want := (from.V + to.V) / 2
	if math.Abs(float64(mid-want)) > 1e-9 {
		t.Errorf("midpoint voltage = %v, want %v", mid, want)
	}
	prev := units.Volt(0)
	for ti := units.Second(0); ti <= tr.VoltDone; ti += tr.VoltDone / 100 {
		v := tr.VoltageAt(ti)
		if v < prev {
			t.Fatalf("voltage ramp not monotone at %v", ti)
		}
		prev = v
	}
}

func TestProbeTransitionSettlesAtTarget(t *testing.T) {
	m := XeonSilver4208().Transition
	c := XeonSilver4208().Vendor
	samples := ProbeTransition(m, c.Min(), c.Top(), det(), units.Microseconds(5))
	if len(samples) < 10 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	last := samples[len(samples)-1]
	if last.V != c.Top().V || last.F != c.Top().F || last.Stalled {
		t.Errorf("final sample %+v did not settle at target", last)
	}
	first := samples[0]
	if first.V != c.Min().V || first.F != c.Min().F {
		t.Errorf("first sample %+v not at origin", first)
	}
}

func TestProbeTransitionStallArtifact(t *testing.T) {
	// Fig 9: samples during the stall carry the stale frequency, and so
	// does the first post-stall sample (late APERF update).
	m := IntelI9_9900K().Transition
	lo, hi := i9States()
	from := PState{Ratio: hi.Ratio, F: hi.F, V: hi.V}
	to := PState{Ratio: lo.Ratio, F: lo.F, V: hi.V} // freq-only downshift
	samples := ProbeTransition(m, from, to, det(), units.Microseconds(1))
	var sawStall, sawArtifact bool
	for i, s := range samples {
		if s.Stalled {
			sawStall = true
			if s.F != from.F {
				t.Errorf("stalled sample %d shows fresh frequency %v", i, s.F)
			}
			continue
		}
		if sawStall && !sawArtifact {
			sawArtifact = true
			if s.F != from.F {
				t.Errorf("first post-stall sample shows %v, want stale %v", s.F, from.F)
			}
		}
	}
	if !sawStall {
		t.Error("no stalled samples observed")
	}
	if !sawArtifact {
		t.Error("no post-stall sample observed")
	}
}

func TestProbeTransitionNoStallOnAMD(t *testing.T) {
	// Fig 10: the 7700X does not stall during frequency changes.
	chip := AMDRyzen7700X()
	c := chip.Vendor
	from := PState{Ratio: c.Top().Ratio, F: c.Top().F, V: c.Top().V}
	to := PState{Ratio: c.Min().Ratio, F: c.Min().F, V: c.Top().V}
	for _, s := range ProbeTransition(chip.Transition, from, to, det(), units.Microseconds(10)) {
		if s.Stalled {
			t.Fatalf("AMD sample stalled at %v", s.T)
		}
	}
}

func TestProbeDefaultsInterval(t *testing.T) {
	m := IntelI9_9900K().Transition
	lo, hi := i9States()
	if got := ProbeTransition(m, lo, hi, det(), 0); len(got) == 0 {
		t.Error("zero interval produced no samples")
	}
}
