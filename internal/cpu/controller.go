package cpu

import (
	"fmt"

	"suit/internal/dvfs"
	"suit/internal/isa"
	"suit/internal/units"
)

// Strategy is the OS half of SUIT (§4.3): it receives the #DO exception
// and deadline-timer interrupts and drives the hardware through the
// Controller, exactly as Listing 1 sketches.
//
// Hooks run in "handler time": controller calls that wait (RequestWait,
// Emulate) advance the handler clock, and state changes (Enable/Disable,
// ArmDeadline) take effect at the handler clock's current value. The
// trapping core resumes when the hook returns.
type Strategy interface {
	// Init runs once at time zero, before any instruction executes —
	// the OS configuring the machine (disable instructions, select the
	// starting curve).
	Init(ctl Controller)
	// OnDisabledOpcode handles a #DO trap raised by core in domain.
	// If it does not emulate the instruction, the instruction re-executes
	// when the core resumes.
	OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode)
	// OnDeadline handles the deadline-timer interrupt of domain.
	OnDeadline(ctl Controller, domain int)
}

// Controller is the hardware interface strategies program, mirroring the
// SUIT MSRs (§3.2, §3.3) plus the p-state machinery.
type Controller interface {
	// Now returns the handler clock.
	Now() units.Second
	// Domains returns the number of DVFS domains.
	Domains() int
	// Mode returns the domain's current target mode.
	Mode(domain int) Mode
	// RequestWait initiates a transition to mode and advances the
	// handler clock to its completion (Listing 1's change_pstate_wait).
	RequestWait(domain int, mode Mode)
	// RequestAsync initiates a transition without waiting.
	RequestAsync(domain int, mode Mode)
	// DisableInstructions/EnableInstructions write the SUIT disable MSR
	// at the current handler clock.
	DisableInstructions(domain int)
	EnableInstructions(domain int)
	// ArmDeadline writes the deadline MSR: the timer fires after d
	// unless a faultable instruction resets it first (§4.1).
	ArmDeadline(domain int, d units.Second)
	// ExceptionsWithin counts #DO traps in the domain during the last
	// window — the OS bookkeeping behind thrashing prevention.
	ExceptionsWithin(domain int, window units.Second) int
	// Emulate resolves the trapped instruction in software: the core is
	// charged the emulation-call delay plus the replacement's work, and
	// the instruction is consumed instead of re-executed. Only valid
	// inside OnDisabledOpcode.
	Emulate(op isa.Opcode)
}

// controller is the Machine's Controller implementation. It is recreated
// per hook invocation to carry the handler context.
type controller struct {
	m *Machine
}

func (c controller) Now() units.Second { return c.m.handlerTime }
func (c controller) Domains() int      { return len(c.m.domains) }

func (c controller) Mode(domain int) Mode { return c.m.domains[domain].target }

// at performs a at the handler clock: immediately when the handler has
// not advanced past simulation time, deferred otherwise. MSR writes and
// timer arming must not become visible to other cores before the handler
// actually reaches that line. Actions are typed values (applySched), not
// closures, so deferring one does not allocate.
func (c controller) at(a schedAction) {
	if c.m.handlerTime <= c.m.now {
		c.m.applySched(&a)
		return
	}
	a.t = c.m.handlerTime
	c.m.pushSched(a)
}

func (c controller) RequestWait(domain int, mode Mode) {
	end := c.m.requestTransition(domain, mode, c.m.handlerTime)
	if end > c.m.handlerTime {
		c.m.handlerTime = end
	}
}

func (c controller) RequestAsync(domain int, mode Mode) {
	c.m.requestTransition(domain, mode, c.m.handlerTime)
}

func (c controller) DisableInstructions(domain int) {
	d := c.m.domains[domain]
	d.disabledView = true
	c.at(schedAction{kind: schedDisable, d: d})
}

func (c controller) EnableInstructions(domain int) {
	d := c.m.domains[domain]
	d.disabledView = false
	if d.target == ModeE && c.m.refusesEfficient(d) {
		// §3.2, enable direction: E may not stay selected.
		c.m.requestTransition(domain, ModeCv, c.m.handlerTime)
	}
	c.at(schedAction{kind: schedEnable, d: d})
}

func (c controller) ArmDeadline(domain int, dur units.Second) {
	if dur <= 0 {
		panic(fmt.Sprintf("cpu: non-positive deadline %v", dur))
	}
	d := c.m.domains[domain]
	c.at(schedAction{kind: schedArmDeadline, d: d, dur: dur, expiry: c.m.handlerTime + dur})
}

func (c controller) ExceptionsWithin(domain int, window units.Second) int {
	d := c.m.domains[domain]
	cutoff := c.m.handlerTime - window
	n := 0
	for i, kept := 0, d.excKept(); i < kept; i++ {
		if d.excNth(i) < cutoff {
			break
		}
		n++
	}
	return n
}

func (c controller) Emulate(op isa.Opcode) {
	m := c.m
	if m.handlerCore < 0 {
		panic("cpu: Emulate outside a #DO handler")
	}
	co := m.cores[m.handlerCore]
	d := m.domainOf(m.handlerCore)
	cost := m.cfg.Emul.Time(op, d.freq)
	m.handlerTime += cost
	// The instruction is resolved in software: consume it.
	if co.retry {
		co.retry = false
		co.pos = float64(co.tr.Events[co.idx].Index) + 1
		co.idx++
	}
	m.res.Emulated++
}

// The hardware interlock of §3.2 is one rule: "the CPU ensures that the
// efficient curve can only be used if the faultable instructions are
// disabled". The OS that drives the curve is not trusted, so a SUIT CPU
// (!AllowUnsafe) applies the rule at all three points where the OS could
// break it:
//
//   - select: a request for E while the handler-visible faultable set is
//     enabled is refused (refusesEfficient);
//   - enable: enabling the set on a domain that targets E makes E refused,
//     so the domain is sent to Cv (EnableInstructions);
//   - trap: a trapped opcode takes #DO while the set is disabled or while
//     the domain's instantaneous voltage is below the conservative curve
//     at its current frequency (belowCurve, in coreArrive and
//     fastForward), which covers every ramp an enable lands in.
//
// The rule is stated in what the hardware knows, its own V/f and its
// curve, never in the monitor's physical margins: the monitor must stay
// an independent check.

// refusesEfficient reports whether the interlock refuses E on d. A
// deferred disable counts: the handler issued it before the request, so
// the handler-visible state decides.
func (m *Machine) refusesEfficient(d *domain) bool {
	return !d.disabledView && !m.cfg.AllowUnsafe
}

// belowCurve reports whether voltage v lies below cons, the conservative
// curve at the domain's frequency, on a SUIT CPU: the interlock then traps
// every trapped opcode, whatever the disable state.
func (m *Machine) belowCurve(v, cons units.Volt) bool {
	return v < cons && !m.cfg.AllowUnsafe
}

// requestTransition plans a p-state change toward mode starting at time t,
// returning its completion time. A pending transition is superseded: the
// new plan starts from the instantaneous voltage/frequency (this is how a
// deadline expiring mid-ramp "cancels the voltage change", §4.3). A
// request the interlock refuses changes nothing and completes at t.
func (m *Machine) requestTransition(domainID int, mode Mode, t units.Second) units.Second {
	d := m.domains[domainID]
	target := m.pts.Get(mode)
	if mode == ModeE && m.refusesEfficient(d) {
		return t
	}

	// Supersede any in-flight transition from the instantaneous state:
	// milestones already in the past are committed first, the rest is
	// cancelled (a deadline expiring mid-ramp "cancels the voltage
	// change", §4.3).
	if p := d.pending; p != nil {
		if p.target == mode {
			// Already heading there; keep the existing plan.
			return p.safeAt
		}
		if p.freqApply > 0 && p.freqTarget != 0 && p.freqApply <= t {
			d.freq = p.freqTarget
		}
		if p.end <= t {
			d.mode = p.target
		}
	}
	curV := d.voltAt(t)
	d.pending = nil
	d.volt, d.voltGoal, d.voltT0, d.voltT1 = curV, curV, t, t

	if d.freq == target.F && curV == target.V {
		d.target = mode
		d.mode = mode
		m.syncTransition(d)
		m.syncDomainCores(d)
		return t
	}
	m.res.Switches++
	if m.cfg.RecordTimeline && domainID == 0 && len(m.res.Timeline) < timelineCap {
		m.res.Timeline = append(m.res.Timeline, ModeChange{T: t, Mode: mode})
	}
	d.target = mode

	tm := m.cfg.Chip.Transition
	norm := m.rng.NormFloat64

	// The transition record is embedded in the domain: a superseded
	// pending plan is fully read above before this overwrite, so reusing
	// the buffer is safe and keeps the steady state allocation-free.
	tr := &d.pendBuf
	*tr = transition{target: mode}
	voltChange := curV != target.V
	freqChange := d.freq != target.F

	var voltDelay, freqDelay units.Second
	if voltChange {
		voltDelay = dvfs.Jitter(tm.VoltDelay, tm.VoltDelaySigma, norm())
	}
	if freqChange {
		freqDelay = dvfs.Jitter(tm.FreqDelay, tm.FreqDelaySigma, norm())
	}

	switch {
	case voltChange && freqChange && target.V > curV:
		// Raising voltage and frequency: voltage must settle first
		// (raising f early would undervolt the new frequency).
		d.voltGoal = target.V
		d.voltT0, d.voltT1 = t, t+voltDelay
		tr.freqTarget = target.F
		tr.freqApply = t + voltDelay + freqDelay
		tr.stallFrom = tr.freqApply - tm.FreqStall
		tr.safeAt = tr.freqApply
	case voltChange && freqChange:
		// Lowering voltage: frequency drops first, voltage follows. The
		// target curve is safely reached once the frequency applies —
		// the outstanding voltage drop only sheds excess margin.
		tr.freqTarget = target.F
		tr.freqApply = t + freqDelay
		tr.stallFrom = tr.freqApply - tm.FreqStall
		d.voltGoal = target.V
		d.voltT0, d.voltT1 = t+freqDelay, t+freqDelay+voltDelay
		tr.safeAt = tr.freqApply
	case voltChange:
		d.voltGoal = target.V
		d.voltT0, d.voltT1 = t, t+voltDelay
		tr.safeAt = t
		if target.V > curV {
			tr.safeAt = d.voltT1
		}
	default: // frequency only
		tr.freqTarget = target.F
		tr.freqApply = t + freqDelay
		tr.stallFrom = tr.freqApply - tm.FreqStall
		tr.safeAt = tr.freqApply
	}
	if tr.stallFrom < t {
		tr.stallFrom = t
	}
	tr.voltDone = d.voltT1
	tr.end = max(tr.freqApply, d.voltT1)
	d.pending = tr
	m.syncTransition(d)
	m.syncDomainCores(d)
	return tr.safeAt
}

func (m *Machine) domainOf(coreID int) *domain {
	return m.domains[m.domainIndexOf(coreID)]
}

func (m *Machine) domainIndexOf(coreID int) int {
	if m.coreDomain != nil {
		return m.coreDomain[coreID]
	}
	if len(m.domains) == 1 {
		return 0
	}
	return coreID
}
