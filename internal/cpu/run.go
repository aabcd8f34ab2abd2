package cpu

import (
	"errors"
	"fmt"
	"suit/internal/isa"

	"suit/internal/msr"
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

// Run executes all traces to completion and returns the result.
func (m *Machine) Run() (Result, error) {
	m.runInit()
	for !m.runDone {
		if err := m.runStep(); err != nil {
			return Result{}, err
		}
	}
	return m.finishRun(), nil
}

// runInit performs the OS boot: the strategy configures the machine at
// time zero and the event scheduler is seeded. Split out of Run so a
// Batch can boot every member before interleaving their steps.
func (m *Machine) runInit() {
	m.runDone = false
	m.stepCount = 0
	m.handlerTime = 0
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
		if m.runDone {
			return nil
		}
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
	m.res.Energy = m.meter.Energy()
	if maxDone > 0 {
		m.res.AvgPower = units.Power(m.res.Energy, maxDone)
	}
	m.res.RAPLCounter = m.rapl.Counter()
	return m.res
}

// fastForward processes consecutive core arrivals of a single-core,
// single-domain machine inline, without any event-queue traffic. It is
// the analytic closed form of the inter-exception interval: between two
// queue-worthy events (a trap, a transition boundary, a deadline, an
// unblock) every arrival is a pure function of (m.now, c.pos, d.freq),
// so the next-event computation, the dispatch switch and the heap
// pop/sync round-trips collapse into one loop. Each iteration computes
// the arrival time with the exact expressions evalCore uses and charges
// it through the same advanceTo, so timestamps, energy and the evLog
// sequence stay bit-identical to the queue path (the differential
// heap-vs-linear oracle runs with fast-forward enabled on the heap
// side).
//
// A streak ends as soon as the arrival stops being uncontended: the
// break conditions mirror evalDomainSub/evalCore term for term, and at
// equal timestamps a due domain event outranks a core arrival exactly
// as the (time, rank) heap order does. The event queue is only
// re-synced at streak exit; in between, cached heap times can only be
// stale-early (time moves forward), which popEvent's lazy re-evaluation
// already handles.
//
//suit:hotpath
func (m *Machine) fastForward() {
	c := m.cores[0]
	d := m.domains[0]
	n := 0
	for m.stepCount < maxSteps {
		if c.finished || c.blockedUntil > m.now || d.stalledAt(m.now) {
			break
		}
		// Next arrival, exactly as evalCore computes it.
		nextIdx := c.tr.Total
		end := true
		var op isa.Opcode
		if c.idx < len(c.tr.Events) {
			nextIdx = c.tr.Events[c.idx].Index
			op = c.tr.Events[c.idx].Op
			end = false
		}
		t := m.now
		if remaining := float64(nextIdx) - c.pos; remaining > 0 {
			rate := c.effRate(d.freq) // instructions/second
			t = m.now + units.Second(remaining/rate)
		}
		// A domain event due at or before the arrival wins the tie-break
		// (domain rank < core rank): hand control back to the queue. The
		// conditions mirror evalDomainSub per sub-slot.
		if p := d.pending; p != nil {
			if p.freqApply > 0 && p.freqTarget != 0 {
				if p.stallFrom >= 0 && p.stallFrom > m.now && p.stallFrom <= t {
					break
				}
				if p.freqApply <= t {
					break
				}
			} else if p.end <= t {
				break
			}
		}
		if d.deadlineAt > 0 && d.deadlineAt <= t {
			break
		}
		trapped := false
		if !end {
			trapped = op.IsFaultable() || (m.cfg.TrapIMUL && op == isa.OpIMUL)
			if d.disabled && trapped {
				// A #DO trap runs the strategy handler: back to the full
				// dispatch loop (the core slot's cached time is at most
				// the true arrival, so the queue re-delivers it).
				break
			}
		}
		m.stepCount++
		n++
		if m.evLog != nil {
			*m.evLog = append(*m.evLog, eventRecord{t: t, kind: evCoreArrive, who: 0}) //lint:allow allocfree test-only differential-oracle log; evLog is nil in production runs
		}
		m.advanceTo(t)
		if end {
			c.pos = float64(c.tr.Total)
			c.finished = true
			c.done = m.now
			break
		}
		c.pos = float64(nextIdx)
		// Execute: safety monitor and hardware deadline reset, exactly as
		// coreArrive's execute path (minus the per-event queue sync).
		off := m.safeOffset(d, m.now)
		if -off > m.physMargin[op] {
			//lint:allow allocfree faults only occur on misconfigured runs; the zero-fault steady state never appends
			m.res.Faults = append(m.res.Faults, FaultRecord{
				T: m.now, Core: c.id, Op: op, V: d.voltAt(m.now),
				Margin: -off - m.cfg.Faults.PhysicalMargin(op, m.cfg.HardenedIMUL),
			})
		}
		if d.deadlineAt > 0 && trapped && !m.cfg.NoDeadlineReset {
			d.deadlineAt = m.now + d.deadlineDur
		}
		c.retry = false
		c.pos = float64(nextIdx) + 1
		c.idx++
		if c.idx >= len(c.tr.Events) && c.pos >= float64(c.tr.Total) {
			c.finished = true
			c.done = m.now
			break
		}
	}
	if n > 0 {
		// Re-sync the slots the streak mutated. Deadline pushes during the
		// streak only move the due time later, so the deferred sync is
		// safe: a stale-early cached time is re-keyed at pop.
		m.syncCore(c)
		m.syncDeadline(d)
		if m.allDone() {
			m.runDone = true
		}
	}
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
	d.msrs.Poke(msr.IA32PerfStatus,
		msr.EncodePerfStatus(uint8(d.freq.GHz()*10), float64(d.voltAt(m.now))))
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

// recordException appends a #DO timestamp. Once the ring is full, the
// oldest entry is overwritten in place — the allocation-free equivalent
// of the old append-then-copy-truncate pattern.
func (d *domain) recordException(t units.Second) {
	if d.exceptions == nil {
		// Lazy one-time allocation at full ring capacity: only trapping
		// domains pay for the ring, and the first Run reaches steady
		// state (Reset keeps the backing array, so replay is alloc-free).
		d.exceptions = make([]units.Second, 0, excRingCap) //lint:allow allocfree one-time full-capacity ring allocation; Reset keeps the backing array so replay is alloc-free
	}
	if len(d.exceptions) < excRingCap {
		d.exceptions = append(d.exceptions, t) //lint:allow allocfree fills the preallocated ring within capacity; in-place overwrite once full
	} else {
		d.exceptions[int(d.excTotal&(excRingCap-1))] = t
	}
	d.excTotal++
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

	trapped := ev.Op.IsFaultable() || (m.cfg.TrapIMUL && ev.Op == isa.OpIMUL)
	if d.disabled && trapped {
		// #DO trap (§3.3). The instruction re-executes after the handler
		// unless the strategy emulates it.
		m.res.Exceptions++
		d.recordException(m.now)
		doCount, err := d.msrs.Read(msr.SUITDOCount)
		if err != nil {
			panic(err) // machine invariant: SUITDOCount is always mapped
		}
		d.msrs.Poke(msr.SUITDOCount, doCount+1)
		c.retry = true
		m.handlerTime = m.now + m.effExceptionDelay()
		m.handlerCore = c.id
		m.strategy.OnDisabledOpcode(controller{m}, m.domainIndexOf(c.id), c.id, ev.Op)
		m.handlerCore = -1
		c.blockedUntil = m.handlerTime
		m.syncCore(c)
		return
	}

	// Execute. Safety monitor: a faultable (or IMUL) instruction running
	// below its margin silently corrupts (§2.3) — SUIT configurations
	// must never reach this.
	off := m.safeOffset(d, m.now)
	if -off > m.physMargin[ev.Op] {
		//lint:allow allocfree faults only occur on misconfigured runs; the zero-fault steady state never appends
		m.res.Faults = append(m.res.Faults, FaultRecord{
			T: m.now, Core: c.id, Op: ev.Op, V: d.voltAt(m.now),
			Margin: -off - m.cfg.Faults.PhysicalMargin(ev.Op, m.cfg.HardenedIMUL),
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

// advanceTo integrates power and residency from m.now to t and moves the
// clock. Within the segment each domain's frequency and each core's
// activity are constant; the voltage may be mid-ramp and is integrated
// analytically.
//
// Fast path: a settled domain (voltT1 <= m.now) has a constant voltage,
// so its ∫V²dt and ∫Vᵉdt integrands are cached per domain and the
// per-event Simpson/math.Pow work is skipped. The cached constants use
// the exact same floating-point expressions the general integral would
// evaluate for a single constant-voltage segment, keeping the energy
// totals bit-identical; the cache keys on voltGoal, which is the settled
// voltage, so any new ramp (which changes voltGoal or voltT1) naturally
// invalidates it.
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
	pm := m.cfg.Chip.Power
	fdt := float64(dt)
	energy := m.uncoreW * fdt
	for _, d := range m.domains {
		var v2, ve float64
		if d.voltT1 <= m.now {
			if !d.vcOK || d.vcGoal != d.voltGoal {
				m.refreshVoltCache(d)
			}
			v2 = d.vcV2 * fdt
			ve = d.vcVe * fdt
		} else {
			v2, ve = d.voltPowIntegrals(m.now, t, &m.kern)
		}
		// Hoisted per-domain factors. Only multiplications are factored
		// out (left-associated exactly as the per-core expression was),
		// so every core's contribution keeps its original bit pattern.
		dyn := pm.CoreCeff * ve * float64(d.freq)
		leak := pm.LeakGV * v2
		for _, c := range d.cores {
			activity := 1.0
			switch {
			case c.finished:
				activity = 0.02
			case c.blockedUntil > m.now || d.stalledAt(m.now):
				activity = 0.1
			}
			// Core progress for running cores.
			if activity == 1.0 && !c.finished {
				c.pos += c.effRate(d.freq) * fdt
			}
			energy += dyn * activity
			energy += leak
		}
		// Residency for the first domain (reports use domain 0).
		if d == m.domains[0] {
			mode := d.mode
			if int(mode) < int(numModes) {
				m.res.Residency[mode] += dt
			}
		}
	}
	m.meter.Add(units.Power(units.Joule(energy), dt), dt)
	m.rapl.Deposit(units.Joule(energy))
	m.now = t
}

// refreshVoltCache computes the constant-voltage integrands at voltGoal.
// The expressions replicate, term by term, what voltPowIntegrals would
// evaluate over a single settled segment (va == vb == voltGoal): the
// quadrature sum is formed the same way and divided before scaling by
// dt, so the fast path is bit-identical to the slow path it bypasses.
func (m *Machine) refreshVoltCache(d *domain) {
	v := float64(d.voltGoal)
	s := v * v
	d.vcV2 = (s + s + s) / 3
	if m.voltExp == 2 {
		d.vcVe = d.vcV2
	} else {
		p := m.kern.eval(v)
		d.vcVe = (p + 4*p + p) / 6
	}
	d.vcGoal = d.voltGoal
	d.vcOK = true
}

// voltPowIntegrals computes ∫V²dτ (leakage) and ∫Vᵉdτ (dynamic) over
// [t0, t1] in one pass over the domain's piecewise-linear voltage
// profile, with e = k.exp. The quadratic integral is exact; other
// exponents use Simpson's rule per linear segment, which is accurate to
// ~10⁻⁸ relative over the millivolt-scale ramps that occur here. Only
// mid-ramp segments reach this slow path; settled domains use the
// per-domain cache in advanceTo.
//
// Every Pow goes through the exponent-specialized kernel, bit-equal to
// math.Pow, and consecutive advanceTo segments within a ramp share an
// endpoint, so the Pow at the segment start is served from the domain's
// chain cache (pvV/pvP). FuzzVoltPowIntegrals holds this path
// bit-identical to the math.Pow reference kept in the tests.
func (d *domain) voltPowIntegrals(t0, t1 units.Second, k *powKernel) (i2, ie float64) {
	// Split at the ramp boundaries. A fixed array keeps the hot loop
	// allocation-free.
	var points [4]units.Second
	points[0], points[1] = t0, t1
	n := 2
	if d.voltT0 > t0 && d.voltT0 < t1 {
		points[n] = d.voltT0
		n++
	}
	if d.voltT1 > t0 && d.voltT1 < t1 {
		points[n] = d.voltT1
		n++
	}
	// Simple 4-element sort.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && points[j] < points[j-1]; j-- {
			points[j], points[j-1] = points[j-1], points[j]
		}
	}
	for i := 1; i < n; i++ {
		a, b := points[i-1], points[i]
		if b <= a {
			continue
		}
		va, vb := float64(d.voltAt(a)), float64(d.voltAt(b))
		seg := float64(b - a)
		// Exact: ∫(va + (vb-va)·s)² = (va² + va·vb + vb²)/3 × length.
		i2 += (va*va + va*vb + vb*vb) / 3 * seg
		if k.exp == 2 {
			continue
		}
		var pa float64
		if d.pvOK && d.pvV == va {
			pa = d.pvP
		} else {
			pa = k.eval(va)
		}
		vm := (va + vb) / 2
		pmid := k.eval(vm)
		pb := k.eval(vb)
		d.pvV, d.pvP, d.pvOK = vb, pb, true
		ie += (pa + 4*pmid + pb) / 6 * seg
	}
	if k.exp == 2 {
		// With a quadratic dynamic exponent both integrals accumulate the
		// identical term sequence, so reuse keeps them bit-equal.
		ie = i2
	}
	return i2, ie
}
