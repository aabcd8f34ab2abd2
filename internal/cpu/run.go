package cpu

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"suit/internal/units"
)

// maxSteps bounds the event loop against pathological configurations
// (e.g. a strategy that neither enables nor emulates, re-trapping the same
// instruction forever).
const maxSteps = 200_000_000

// eventRecord is one dispatched event, captured when a test installs
// m.evLog (the differential heap-vs-linear oracle compares sequences).
type eventRecord struct {
	t    units.Second
	kind evKind
	who  int
}

// Run executes all traces to completion and returns the result. Once
// the result is final, each domain's exception ring goes back to
// excRings for the next machine.
func (m *Machine) Run() (Result, error) {
	m.runInit()
	for !m.runDone {
		if err := m.runStep(); err != nil {
			return Result{}, err
		}
	}
	res := m.finishRun()
	for _, d := range m.domains {
		if d.exceptions != nil {
			excRings.Put((*[excRingCap]units.Second)(d.exceptions[:excRingCap]))
			d.exceptions = nil
		}
	}
	return res, nil
}

// runInit performs the OS boot: the strategy configures the machine at
// time zero and the event scheduler is seeded. Split out of Run so tests
// can boot a machine and then drive or measure its steps alone.
func (m *Machine) runInit() {
	m.strategy.Init(controller{m})
	// Transitions requested during Init complete instantaneously: the
	// workload is defined to start on the strategy's initial curve
	// (the paper's simulations begin in steady state).
	for _, d := range m.domains {
		if d.pending != nil {
			d.freq = d.pending.freqTarget
			if d.pending.freqTarget == 0 {
				d.freq = m.pts.Get(d.pending.target).F
			}
			d.volt = m.pts.Get(d.pending.target).V
			d.voltGoal = d.volt
			d.voltT0, d.voltT1 = 0, 0
			d.mode = d.pending.target
			d.pending = nil
		}
	}
	for i := range m.scheduled {
		a := m.scheduled[i]
		m.applySched(&a)
	}
	m.scheduled = m.scheduled[:0]
	m.schedLive = 0
	m.handlerTime = 0
	m.syncAll()
}

// runStep dispatches the next event; when the machine is eligible it
// first fast-forwards through a streak of uncontended core arrivals
// without touching the event queue. Sets m.runDone when the run is over.
//
//suit:hotpath
func (m *Machine) runStep() error {
	if m.ffEligible && m.schedLive == 0 {
		m.fastForward()
	}
	t, kind, who := m.popEvent()
	return m.dispatch(t, kind, who)
}

// dispatch applies one event the scheduler selected: it advances the
// clock to t and runs the event's handler. evNone ends the run. The
// differential tests drive it directly from their own event sources.
func (m *Machine) dispatch(t units.Second, kind evKind, who int) error {
	if m.stepCount >= maxSteps {
		return errors.New("cpu: event-loop step limit exceeded") //lint:allow allocfree constructed once on the runaway-configuration abort path
	}
	m.stepCount++
	if kind == evNone {
		m.runDone = true
		return nil
	}
	if t < m.now {
		return fmt.Errorf("cpu: time went backwards: %v < %v", t, m.now) //lint:allow allocfree time-regression invariant abort, not the steady state
	}
	if m.evLog != nil {
		*m.evLog = append(*m.evLog, eventRecord{t: t, kind: kind, who: who}) //lint:allow allocfree test-only differential-oracle log; evLog is nil in production runs
	}
	m.advanceTo(t)
	switch kind {
	case evSched:
		a := m.scheduled[who]
		m.consumeSched(who)
		m.applySched(&a)
	case evFreqApply:
		m.applyFreq(m.domains[who])
	case evTransitionEnd:
		d := m.domains[who]
		d.mode = d.pending.target
		d.pending = nil
		m.syncTransition(d)
	case evDeadline:
		m.fireDeadline(who)
	case evStallStart:
		// No state change: the boundary only segments power/timing.
		d := m.domains[who]
		d.pending.stallFrom = -1 // consumed as an event
		m.syncDomainCores(d)     // the stall window is now active
	case evCoreArrive:
		m.coreArrive(m.cores[who])
	case evCoreUnblock:
		c := m.cores[who]
		c.blockedUntil = 0
		// The pending (retrying) instruction is handled on the next
		// iteration via evCoreArrive at the same timestamp.
		m.syncCore(c)
	case evNone:
		panic("cpu: evNone dispatched; the scheduler filters it above")
	}
	if m.audit {
		if err := m.auditQueue(); err != nil {
			return err
		}
	}
	// The measurement interval ends when the last core commits its
	// stream; residual transitions or timer events past that point
	// would otherwise inflate energy and residency totals.
	if m.allDone() {
		m.runDone = true
	}
	return nil
}

// finishRun finalises the result once runDone is set.
func (m *Machine) finishRun() Result {
	var maxDone units.Second
	for _, c := range m.cores {
		m.res.PerCore[c.id] = c.done
		if c.done > maxDone {
			maxDone = c.done
		}
		m.res.Instructions += c.tr.Total
	}
	m.res.Duration = maxDone
	for _, d := range m.domains {
		m.closeEpoch(d)
	}
	m.res.Energy = units.Joule(m.energy) + units.Energy(units.Watt(m.uncoreW), m.now)
	if maxDone > 0 {
		m.res.AvgPower = units.Power(m.res.Energy, maxDone)
	}
	m.rapl.Deposit(m.res.Energy)
	m.res.RAPLCounter = m.rapl.Counter()
	return m.res
}

// fastForward takes the core arrivals of a single-core, single-domain
// machine inline, without event-queue traffic. Between two queue-worthy
// events (a trap, a transition boundary, a deadline, an unblock) the
// domain's frequency, mode, disable state, pending transition, voltage
// ramp and open energy epoch cannot change, so the loop keeps the clock,
// the core's progress, the deadline and domain 0's residency in locals
// and per arrival does only what can change: the arrival time, the break
// tests, the trap test, the safety monitor, the residency sum and the
// deadline push. Each is the expression the reference path
// (popEvent, dispatch, advanceTo, coreArrive) evaluates, in the same
// order, so timestamps, energy and the evLog sequence stay bit-identical.
//
// An arrival the loop cannot take plainly is declined and stays in the
// queue for the reference path: a #DO trap, a would-be fault, the
// stream's last event or its end, a due operating-point sample, or the
// step limit. At equal timestamps a due domain event outranks a core
// arrival exactly as the (time, rank) heap order does. The queue is
// re-synced at streak exit; in between, cached heap times can only be
// stale-early, which popEvent's lazy re-evaluation already handles.
//
//suit:hotpath
func (m *Machine) fastForward() {
	c, d := m.cores[0], m.domains[0]
	if c.finished || c.blockedUntil > m.now || d.stalledAt(m.now) {
		return
	}
	evs, start := c.tr.Events, c.idx
	stop := min(len(evs)-1, start+maxSteps-m.stepCount)
	now, pos, dl := m.now, c.pos, d.deadlineAt
	rate := c.effRate(d.freq) // instructions/second
	p, disabled := d.pending, d.disabled
	sampleAt := units.Second(math.Inf(1))
	if m.cfg.SampleEvery > 0 {
		sampleAt = m.nextSample
	}
	// Per-streak set-up, run by the first arrival that passes the clock
	// break tests, so a streak ending there costs nothing more.
	var (
		consV, settledV                         units.Volt
		rampEnd, resid                          units.Second
		dyn                                     float64
		settledBelow, midRamp, staleEpoch, push bool
	)
	idx := start
	for ; idx < stop; idx++ {
		ev := &evs[idx]
		t := now
		if remaining := float64(ev.Index) - pos; remaining > 0 {
			t = now + units.Second(remaining/rate)
		}
		// The conditions mirror evalDomainSub per sub-slot.
		if p != nil {
			if p.freqApply > 0 && p.freqTarget != 0 {
				if p.stallFrom >= 0 && p.stallFrom > now && p.stallFrom <= t {
					break
				}
				if p.freqApply <= t {
					break
				}
			} else if p.end <= t {
				break
			}
		}
		if dl > 0 && dl <= t || sampleAt <= t {
			break
		}
		if idx == start {
			if int(d.mode) >= int(numModes) {
				break // advanceTo keeps no residency for an unknown mode
			}
			consV = m.consVolt(d)
			settledV = d.voltGoal
			settledBelow = m.belowCurve(settledV, consV)
			rampEnd = d.voltT1
			midRamp = t < rampEnd
			resid = m.res.Residency[d.mode]
			dyn = m.cfg.Chip.Power.CoreCeff * float64(d.freq) // Σactivity = 1: one running core
			staleEpoch = dyn != d.ep.dyn || d.ramp != d.ep.ramp
			push = dl > 0 && !m.cfg.NoDeadlineReset
		}
		// The voltage is constant once the ramp settled. The trap test
		// and the safety monitor are coreArrive's.
		v, below := settledV, settledBelow
		if t < rampEnd {
			v = d.voltAt(t)
			below = m.belowCurve(v, consV)
		}
		trapped := m.trapped[ev.Op]
		if trapped && (disabled || below) || v < consV-m.physMargin[ev.Op] {
			break
		}
		if m.evLog != nil {
			*m.evLog = append(*m.evLog, eventRecord{t: t, kind: evCoreArrive, who: 0}) //lint:allow allocfree test-only differential-oracle log; evLog is nil in production runs
		}
		if t != now {
			// The streak's first advance starts at m.now and, as in
			// advanceTo, closes the open epoch there if dyn or the ramp
			// moved since it opened; every later advance extends it.
			if staleEpoch {
				m.closeEpoch(d)
				d.ep.dyn, d.ep.ramp = dyn, d.ramp
				staleEpoch = false
			}
			resid += t - now
		}
		if trapped && push {
			dl = t + d.deadlineDur
		}
		now, pos = t, float64(ev.Index)+1
	}
	n := idx - start
	if n == 0 {
		return
	}
	m.stepCount += n
	m.ff.arrivals += n
	if midRamp {
		m.ff.rampStreaks++
	}
	m.now, c.pos, c.idx, c.retry = now, pos, idx, false
	d.deadlineAt = dl
	m.res.Residency[d.mode] = resid
	// Re-sync the slots the streak mutated. Deadline pushes only move the
	// due time later, so a stale-early cached time is re-keyed at pop.
	m.syncCore(c)
	m.syncDeadline(d)
}

// allDone reports whether every core has committed its whole stream.
func (m *Machine) allDone() bool {
	for _, c := range m.cores {
		if !c.finished {
			return false
		}
	}
	return true
}

type evKind uint8

const (
	evNone evKind = iota
	evSched
	evFreqApply
	evTransitionEnd
	evStallStart
	evDeadline
	evCoreArrive
	evCoreUnblock
)

// applyFreq commits a pending frequency change; if the voltage ramp is
// still outstanding, the transition stays pending until its end.
func (m *Machine) applyFreq(d *domain) {
	p := d.pending
	d.freq = p.freqTarget
	p.freqApply = 0
	p.freqTarget = 0
	if p.end <= m.now {
		d.mode = p.target
		d.pending = nil
	}
	m.syncTransition(d)
	m.syncDomainCores(d) // new frequency, stall window over
}

// fireDeadline delivers the timer interrupt to the strategy.
func (m *Machine) fireDeadline(domainID int) {
	d := m.domains[domainID]
	d.deadlineAt = 0
	m.res.DeadlineFires++
	m.handlerTime = m.now
	m.handlerCore = -1
	m.strategy.OnDeadline(controller{m}, domainID)
}

// excRingCap is the exception ring capacity; excKeep replicates the old
// copy-truncation low-water mark so thrashing-window counts stay
// byte-identical (the slice used to grow to excRingCap entries and then
// be copy-truncated to its newest excKeep).
const (
	excRingCap = 8192 // power of two (ring indices are masked)
	excKeep    = 4096
)

// excRings holds the exception rings of finished machines. A ring is
// 64 KiB, and a sweep point whose streams trap only a few hundred times
// would otherwise allocate and zero a fresh one per trapping domain.
var excRings sync.Pool

// recordException appends a #DO timestamp to the domain's ring, which
// the caller has taken (takeRing). Once the ring is full, the oldest
// entry is overwritten in place — the allocation-free equivalent of the
// old append-then-copy-truncate pattern.
func (d *domain) recordException(t units.Second) {
	if len(d.exceptions) < excRingCap {
		d.exceptions = append(d.exceptions, t) //lint:allow allocfree fills the preallocated ring within capacity; in-place overwrite once full
	} else {
		d.exceptions[int(d.excTotal&(excRingCap-1))] = t
	}
	d.excTotal++
}

// takeRing returns an empty exception ring for a domain's first #DO: a
// finished machine's, else a new one at full capacity. Only trapping
// domains hold a ring, and it never grows. Appends refill a reused ring
// from index 0, and excNth reads only entries this machine wrote. The
// trap path calls it, out of line, before recordException, which then
// stays small enough to inline there; with the pool lookup inside it,
// it did not, and a 1e8-instruction Table 7 sweep ran about 5 % slower.
//
//go:noinline
func takeRing() []units.Second {
	ring, _ := excRings.Get().(*[excRingCap]units.Second)
	if ring == nil {
		ring = new([excRingCap]units.Second) //lint:allow allocfree one-time full-capacity ring allocation on a domain's first #DO when no finished machine's ring is free; it never grows after
	}
	return ring[:0]
}

// excKept returns how many recent exceptions are visible to
// ExceptionsWithin — exactly the slice length the old grow-then-truncate
// code would have at this append count (it cycled between excKeep and
// excRingCap entries).
func (d *domain) excKept() int {
	if d.excTotal <= excRingCap {
		return int(d.excTotal)
	}
	return excKeep + int((d.excTotal-excRingCap-1)%(excRingCap-excKeep+1))
}

// excNth returns the i-th newest recorded exception (0 = newest);
// i must be < excKept().
func (d *domain) excNth(i int) units.Second {
	return d.exceptions[int((d.excTotal-1-uint64(i))&(excRingCap-1))]
}

// coreArrive processes a core reaching its next trace event (or the end
// of its stream).
func (m *Machine) coreArrive(c *core) {
	if c.idx >= len(c.tr.Events) {
		// End of stream.
		c.pos = float64(c.tr.Total)
		c.finished = true
		c.done = m.now
		m.syncCore(c)
		return
	}
	ev := c.tr.Events[c.idx]
	c.pos = float64(ev.Index)
	d := m.domainOf(c.id)

	trapped := m.trapped[ev.Op]
	v, cons := d.voltAt(m.now), m.consVolt(d)
	if trapped && (d.disabled || m.belowCurve(v, cons)) {
		// #DO trap (§3.3), or the §3.2 interlock trapping below the
		// curve. The instruction re-executes after the handler unless
		// the strategy emulates it.
		m.res.Exceptions++
		if d.exceptions == nil {
			d.exceptions = takeRing()
		}
		d.recordException(m.now)
		c.retry = true
		m.handlerTime = m.now + m.effExceptionDelay()
		m.handlerCore = c.id
		m.strategy.OnDisabledOpcode(controller{m}, m.domainIndexOf(c.id), c.id, ev.Op)
		m.handlerCore = -1
		c.blockedUntil = m.handlerTime
		m.syncCore(c)
		return
	}

	// Execute. Safety monitor: an instruction running below its margin
	// silently corrupts (§2.3) — SUIT configurations must never reach
	// this. Executing exactly at the margin is safe (guardband.Faults);
	// comparing voltages keeps that exact, as E sits at cons − margin.
	if floor := cons - m.physMargin[ev.Op]; v < floor {
		//lint:allow allocfree faults only occur on misconfigured runs; the zero-fault steady state never appends
		m.res.Faults = append(m.res.Faults, FaultRecord{
			T: m.now, Core: c.id, Op: ev.Op, V: v, Margin: floor - v,
		})
	}
	// Hardware deadline reset: executing an instruction that would be
	// disabled on the efficient curve restarts the count-down (§4.1).
	if d.deadlineAt > 0 && trapped && !m.cfg.NoDeadlineReset {
		d.deadlineAt = m.now + d.deadlineDur
		m.syncDeadline(d)
	}
	c.retry = false
	c.pos = float64(ev.Index) + 1
	c.idx++
	if c.idx >= len(c.tr.Events) && c.pos >= float64(c.tr.Total) {
		c.finished = true
		c.done = m.now
	}
	m.syncCore(c)
}

// advanceTo moves the clock to t, advancing core progress and residency
// over [m.now, t). Within the segment each domain's frequency and each
// core's activity are constant; the voltage may be mid-ramp.
//
// Energy is not integrated here. Each domain's power draw over the
// segment is fixed by its dynamic coefficient and voltage trajectory;
// while both match the open epoch the segment simply extends it, and
// only a change closes the epoch and charges it in closed form. The cost
// of energy accounting therefore grows with state changes, not with
// arrivals.
//
//suit:hotpath
func (m *Machine) advanceTo(t units.Second) {
	dt := t - m.now
	if dt < 0 {
		panic("cpu: advanceTo into the past")
	}
	if dt == 0 {
		m.now = t
		return
	}
	// Fixed-grid operating-point sampling (domain 0). The frequency is
	// constant within a segment; the voltage may be mid-ramp.
	if iv := m.cfg.SampleEvery; iv > 0 {
		d0 := m.domains[0]
		for m.nextSample <= t && len(m.res.Samples) < timelineCap {
			//lint:allow allocfree bounded by timelineCap and gated on cfg.SampleEvery, which sweeps leave off
			m.res.Samples = append(m.res.Samples, StateSample{
				T: m.nextSample, F: d0.freq, V: d0.voltAt(m.nextSample), Mode: d0.mode,
			})
			m.nextSample += iv
		}
	}
	fdt := float64(dt)
	for _, d := range m.domains {
		stalled := d.stalledAt(m.now)
		act := 0.0
		for _, c := range d.cores {
			switch {
			case c.finished:
				act += 0.02
			case c.blockedUntil > m.now || stalled:
				act += 0.1
			default:
				act++
				c.pos += c.effRate(d.freq) * fdt
			}
		}
		if dyn := m.cfg.Chip.Power.CoreCeff * float64(d.freq) * act; dyn != d.ep.dyn || d.ramp != d.ep.ramp {
			m.closeEpoch(d)
			d.ep.dyn, d.ep.ramp = dyn, d.ramp
		}
		// Residency for the first domain (reports use domain 0).
		if d == m.domains[0] {
			mode := d.mode
			if int(mode) < int(numModes) {
				m.res.Residency[mode] += dt
			}
		}
	}
	m.now = t
}

// closeEpoch charges d's open epoch, [d.ep.t0, m.now), into m.energy
// and reopens it at m.now: dyn·∫Vᵉdτ for the cores' switching plus
// LeakGV·∫V²dτ per core for leakage, both over the epoch's trajectory.
func (m *Machine) closeEpoch(d *domain) {
	if m.now > d.ep.t0 {
		i2, ie := d.ep.ramp.integrals(d.ep.t0, m.now, m.voltExp)
		m.energy += d.ep.dyn*ie + m.cfg.Chip.Power.LeakGV*float64(len(d.cores))*i2
	}
	d.ep.t0 = m.now
}

// integrals returns ∫V²dτ and ∫Vᵉdτ over [t0, t1] along the trajectory.
// The trajectory's breakpoints, clamped into the window, cut it into at
// most three linear pieces, each integrated exactly: V² by its
// polynomial, Vᵉ by rampMean. With e == 2 both are the same integral,
// and ie is i2 bit for bit.
func (r *ramp) integrals(t0, t1 units.Second, exp float64) (i2, ie float64) {
	pts := [4]units.Second{t0, min(max(r.voltT0, t0), t1), min(max(r.voltT1, t0), t1), t1}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if b <= a {
			continue
		}
		va, vb := float64(r.voltAt(a)), float64(r.voltAt(b))
		dt := float64(b - a)
		// ∫(va + (vb−va)·s)² ds over [0, 1] = (va² + va·vb + vb²)/3.
		i2 += (va*va + va*vb + vb*vb) / 3 * dt
		if exp != 2 {
			ie += rampMean(va, vb, exp) * dt
		}
	}
	if exp == 2 {
		ie = i2
	}
	return i2, ie
}

// rampMean returns the mean of Vᵉ over a linear ramp from va to vb,
// (vb^(e+1) − va^(e+1)) / ((e+1)·(vb − va)). It is evaluated as
// va^e · expm1((e+1)·log1p(u)) / ((e+1)·u) with u = (vb − va)/va: the
// difference of two nearly equal powers is never formed, so a
// nanovolt ramp keeps full precision, and u == 0 (a constant piece)
// reduces to va^e.
func rampMean(va, vb, e float64) float64 {
	p := math.Pow(va, e) //lint:allow hotpath evaluated once per epoch piece when an epoch closes, not once per arrival
	u := (vb - va) / va
	if u == 0 {
		return p
	}
	return p * (math.Expm1((e+1)*math.Log1p(u)) / ((e + 1) * u))
}
