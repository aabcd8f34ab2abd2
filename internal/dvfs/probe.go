package dvfs

import (
	"suit/internal/units"
)

// This file reproduces the measurement methodology of §5.2: a kernel
// module requests a p-state change and then polls the observed voltage
// (MSR_IA32_PERF_STATUS) and effective frequency (APERF/MPERF) until they
// settle. ProbeTransition performs the same experiment against a
// TransitionModel, producing the sample series plotted in Figs 8–11.

// Sample is one polled observation during a transition.
type Sample struct {
	T units.Second // time since the change was requested
	F units.Hertz  // observed effective frequency (APERF/MPERF)
	V units.Volt   // observed core voltage (PERF_STATUS)
	// Stalled marks samples that could not be taken because the core was
	// stalled by the frequency change (the grey area of Fig 9). Stalled
	// samples carry the last pre-stall readings.
	Stalled bool
}

// Transition describes the timed phases of one p-state change under a
// TransitionModel. All times are relative to the request.
type Transition struct {
	From, To PState
	// VoltStart/VoltDone delimit the voltage ramp ([0,0] if no voltage
	// change).
	VoltStart, VoltDone units.Second
	// FreqDone is when the new frequency becomes active ([0] if no
	// frequency change). The core is stalled in [StallStart, FreqDone].
	FreqDone   units.Second
	StallStart units.Second
	// End is when the transition is fully settled.
	End units.Second
}

// Plan computes the phase timing for a transition from → to. norm supplies
// standard normal variates for delay jitter (pass func() float64 {return 0}
// for deterministic mean delays).
func (m TransitionModel) Plan(from, to PState, norm func() float64) Transition {
	tr := Transition{From: from, To: to}
	voltChange := from.V != to.V
	freqChange := from.F != to.F

	var voltDelay, freqDelay units.Second
	if voltChange {
		voltDelay = Jitter(m.VoltDelay, m.VoltDelaySigma, norm())
	}
	if freqChange {
		freqDelay = Jitter(m.FreqDelay, m.FreqDelaySigma, norm())
	}

	switch {
	case m.VoltFirst && voltChange && freqChange:
		// Xeon PCPS: voltage settles first, then the frequency change
		// with its stall (Fig 11), regardless of direction.
		tr.VoltStart, tr.VoltDone = 0, voltDelay
		tr.FreqDone = voltDelay + freqDelay
		tr.StallStart = tr.FreqDone - m.FreqStall
	case voltChange && freqChange:
		// Independent planes: both proceed concurrently.
		tr.VoltStart, tr.VoltDone = 0, voltDelay
		tr.FreqDone = freqDelay
		tr.StallStart = tr.FreqDone - m.FreqStall
	case voltChange:
		tr.VoltStart, tr.VoltDone = 0, voltDelay
	case freqChange:
		tr.FreqDone = freqDelay
		tr.StallStart = tr.FreqDone - m.FreqStall
	}
	if tr.StallStart < 0 {
		tr.StallStart = 0
	}
	tr.End = max(tr.VoltDone, tr.FreqDone)
	return tr
}

// VoltageAt returns the supply voltage at time t of the transition,
// modelling the regulator ramp as linear between the endpoints.
func (tr Transition) VoltageAt(t units.Second) units.Volt {
	if tr.VoltDone == tr.VoltStart { // no voltage change
		if tr.To.V != tr.From.V && t >= tr.End {
			return tr.To.V
		}
		return tr.From.V
	}
	switch {
	case t <= tr.VoltStart:
		return tr.From.V
	case t >= tr.VoltDone:
		return tr.To.V
	default:
		frac := float64(t-tr.VoltStart) / float64(tr.VoltDone-tr.VoltStart)
		return tr.From.V + units.Volt(frac)*(tr.To.V-tr.From.V)
	}
}

// FrequencyAt returns the core clock at time t of the transition. The
// frequency steps (rather than ramps) when the PLL relocks.
func (tr Transition) FrequencyAt(t units.Second) units.Hertz {
	if tr.From.F == tr.To.F {
		return tr.From.F
	}
	if t >= tr.FreqDone {
		return tr.To.F
	}
	return tr.From.F
}

// StalledAt reports whether the core is stalled at time t.
func (tr Transition) StalledAt(t units.Second) bool {
	if tr.From.F == tr.To.F || tr.FreqDone == 0 {
		return false
	}
	return t >= tr.StallStart && t < tr.FreqDone
}

// ProbeTransition polls a transition every interval, replicating the §5.2
// kernel-module loop. During the stall no fresh readings are possible:
// samples carry the pre-stall frequency and are marked Stalled — including
// the APERF artifact the paper observes (the first post-stall sample still
// shows the stale frequency because APERF updates late).
func ProbeTransition(m TransitionModel, from, to PState, norm func() float64, interval units.Second) []Sample {
	tr := m.Plan(from, to, norm)
	if interval <= 0 {
		interval = units.Microseconds(1)
	}
	var out []Sample
	staleFreq := from.F
	stalePending := false
	// Sample a few intervals past settle so the series always ends with a
	// fresh (post-artifact) reading of the target operating point.
	for t := units.Second(0); t <= tr.End+3*interval; t += interval {
		s := Sample{T: t, V: tr.VoltageAt(t), F: tr.FrequencyAt(t), Stalled: tr.StalledAt(t)}
		if s.Stalled {
			s.F = staleFreq
			stalePending = true
		} else if stalePending {
			// First reading after the stall: APERF still reports the
			// pre-change frequency (Fig 9).
			s.F = staleFreq
			stalePending = false
		} else {
			staleFreq = s.F
		}
		out = append(out, s)
	}
	return out
}
