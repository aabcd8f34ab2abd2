package strategy

import (
	"suit/internal/cpu"
	"suit/internal/isa"
	"suit/internal/units"
)

// Adaptive is a self-tuning variant of fV that replaces the fixed Table 7
// deadline with an exponentially weighted estimate of the workload's
// inter-exception gap. The paper observes that a single parameter set
// works across workloads because the tolerance band is wide (§6.4);
// Adaptive explores the obvious next step — let the OS learn the band per
// workload instead of shipping constants.
//
// Policy: the deadline is adaptiveAlpha × EWMA(gap between consecutive
// #DO exceptions), clamped to [10 µs, 2 ms]. Short observed gaps (a
// thrashing workload) stretch the deadline exactly like the static
// thrashing prevention, but proportionally; long gaps (sparse bursts)
// shrink it toward the lower clamp, returning to the efficient curve
// sooner than the fixed p_dl would.
type Adaptive struct {
	// per-domain learning state; Adaptive must be used by pointer so the
	// state persists across handler invocations.
	lastException []units.Second
	ewmaGap       []units.Second
}

// The Adaptive policy constants: adaptiveAlpha scales the gap estimate
// into a deadline, adaptiveSmoothing is the EWMA weight of the newest
// gap, and the deadline is clamped to [adaptiveMinUS µs, adaptiveMaxMS ms].
const (
	adaptiveAlpha     = 0.5
	adaptiveSmoothing = 0.25
	adaptiveMinUS     = 10
	adaptiveMaxMS     = 2
)

// Init implements cpu.Strategy.
func (a *Adaptive) Init(ctl cpu.Controller) {
	n := ctl.Domains()
	a.lastException = make([]units.Second, n)
	a.ewmaGap = make([]units.Second, n)
	for d := 0; d < n; d++ {
		a.lastException[d] = -1
		ctl.DisableInstructions(d)
		ctl.RequestAsync(d, cpu.ModeE)
	}
}

// deadline computes the current deadline for a domain.
func (a *Adaptive) deadline(domain int) units.Second {
	return min(max(adaptiveAlpha*a.ewmaGap[domain], units.Microseconds(adaptiveMinUS)), units.Milliseconds(adaptiveMaxMS))
}

// OnDisabledOpcode implements cpu.Strategy.
func (a *Adaptive) OnDisabledOpcode(ctl cpu.Controller, domain, core int, op isa.Opcode) {
	now := ctl.Now()
	if a.lastException[domain] >= 0 {
		gap := now - a.lastException[domain]
		if a.ewmaGap[domain] == 0 {
			a.ewmaGap[domain] = gap
		} else {
			a.ewmaGap[domain] = adaptiveSmoothing*gap + (1-adaptiveSmoothing)*a.ewmaGap[domain]
		}
	}
	a.lastException[domain] = now

	ctl.RequestWait(domain, cpu.ModeCf)
	ctl.RequestAsync(domain, cpu.ModeCv)
	ctl.EnableInstructions(domain)
	ctl.ArmDeadline(domain, a.deadline(domain))
}

// OnDeadline implements cpu.Strategy.
func (a *Adaptive) OnDeadline(ctl cpu.Controller, domain int) {
	ctl.DisableInstructions(domain)
	ctl.RequestAsync(domain, cpu.ModeE)
}
