package cpu

// This file implements the indexed event scheduler that replaced the
// per-event linear scan of nextEvent (kept as nextEventLinear, the
// reference implementation in eventq_test.go).
//
// Design. Every potential event source is a *slot* with a fixed
// identity:
//
//   - one slot per core (its next arrival or unblock),
//   - four slots per domain (stall start, frequency apply, transition
//     end, deadline),
//   - one slot per live entry of m.scheduled (deferred handler effects).
//
// A binary heap orders the slots by (time, rank), where rank encodes the
// linear scan's deterministic tie-break exactly: scheduled actions beat
// domains beat cores, and within each class the ascending index wins;
// within a domain, stall start precedes frequency-apply/transition-end
// (mutually exclusive) precedes deadline. Because every live slot has a
// unique rank, the heap order at equal times is total and matches the
// scan's first-considered-wins rule.
//
// Byte-identity contract. The linear scan recomputed every candidate
// time each iteration; a core's arrival estimate drifts by ulps as
// c.pos is advanced segment by segment, and the *fired* time is the one
// computed from the machine state of the final iteration. The heap
// therefore stores cached times only to *order* the slots; popEvent
// re-evaluates the root slot against current machine state and fires
// with the freshly computed time — exactly the value the final linear
// scan would have produced. A root whose cached time is stale is
// re-keyed and re-sifted; a root whose slot is no longer due (e.g. a
// core whose domain began stalling, or a stall boundary overtaken by
// the clock at an equal-time tie) is lazily discarded, which also
// matches the scan: such candidates simply vanished from its view.
//
// Mutation points re-sync the affected slots (see the sync* methods and
// their call sites in run.go and controller.go); the invariant — every
// slot the linear scan would consider is present in the heap, possibly
// with a stale cached time — is checked by auditQueue under the
// test-only m.audit flag.

import (
	"fmt"

	"suit/internal/units"
)

// Domain sub-slot indices.
const (
	subStall    = 0
	subFreq     = 1 // frequency apply
	subEnd      = 2 // transition end (mutually exclusive with subFreq)
	subDeadline = 3
)

// rank packs the linear scan's tie-break into one comparable word:
// class (scheduled < domain < core) in the high bits, the slot's index
// in the middle, and the intra-domain event order in the low bits.
func schedRank(i int) uint64 { return uint64(i) << 8 }
func domainRank(d, sub int) uint64 {
	minor := uint64(0)
	switch sub {
	case subFreq, subEnd: // mutually exclusive, same scan position
		minor = 1
	case subDeadline:
		minor = 2
	}
	return 1<<40 | uint64(d)<<8 | minor
}
func coreRank(id int) uint64 { return 2<<40 | uint64(id)<<8 }

// eqNode is one heap entry. slot >= 0 addresses a fixed slot (cores,
// then domain sub-slots); slot < 0 addresses scheduled action -(slot+1).
type eqNode struct {
	t    units.Second
	rank uint64
	slot int32
}

// eventQueue is an indexed binary min-heap over the event slots.
type eventQueue struct {
	nodes []eqNode
	pos   []int32 // fixed slot -> index into nodes, -1 when absent
	spos  []int32 // scheduled slot -> index into nodes, parallel to m.scheduled
}

// init sizes the fixed-slot table and empties the heap.
func (q *eventQueue) init(fixedSlots int) {
	q.nodes = q.nodes[:0]
	if cap(q.pos) < fixedSlots {
		q.pos = make([]int32, fixedSlots)
	}
	q.pos = q.pos[:fixedSlots]
	for i := range q.pos {
		q.pos[i] = -1
	}
	q.spos = q.spos[:0]
}

func (q *eventQueue) posPtr(slot int32) *int32 {
	if slot >= 0 {
		return &q.pos[slot]
	}
	return &q.spos[-slot-1]
}

// set inserts or re-keys a slot.
//
//suit:hotpath
func (q *eventQueue) set(slot int32, t units.Second, rank uint64) {
	p := q.posPtr(slot)
	if *p >= 0 {
		i := int(*p)
		if q.nodes[i].t == t {
			return
		}
		q.nodes[i].t = t
		q.fix(i)
		return
	}
	q.nodes = append(q.nodes, eqNode{t: t, rank: rank, slot: slot}) //lint:allow allocfree heap reaches its full slot capacity during boot; steady-state set re-keys in place
	i := len(q.nodes) - 1
	*p = int32(i)
	q.up(i)
}

// clear removes a slot if present.
//
//suit:hotpath
func (q *eventQueue) clear(slot int32) {
	p := q.posPtr(slot)
	if *p < 0 {
		return
	}
	q.removeAt(int(*p))
}

func (q *eventQueue) removeAt(i int) {
	last := len(q.nodes) - 1
	q.swap(i, last)
	removed := q.nodes[last]
	q.nodes = q.nodes[:last]
	*q.posPtr(removed.slot) = -1
	if i < last {
		q.fix(i)
	}
}

func (q *eventQueue) less(i, j int) bool {
	a, b := &q.nodes[i], &q.nodes[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.rank < b.rank
}

func (q *eventQueue) swap(i, j int) {
	q.nodes[i], q.nodes[j] = q.nodes[j], q.nodes[i]
	*q.posPtr(q.nodes[i].slot) = int32(i)
	*q.posPtr(q.nodes[j].slot) = int32(j)
}

func (q *eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) bool {
	moved := false
	for {
		l := 2*i + 1
		if l >= len(q.nodes) {
			return moved
		}
		s := l
		if r := l + 1; r < len(q.nodes) && q.less(r, l) {
			s = r
		}
		if !q.less(s, i) {
			return moved
		}
		q.swap(s, i)
		i = s
		moved = true
	}
}

// --- Slot evaluation (shared by popEvent and the sync methods) ---

// evalDomainSub mirrors the linear scan's per-domain candidate logic for
// one sub-slot, evaluated against current machine state.
func (m *Machine) evalDomainSub(d *domain, sub int) (units.Second, evKind, bool) {
	p := d.pending
	switch sub {
	case subStall:
		if p != nil && p.freqApply > 0 && p.freqTarget != 0 &&
			p.stallFrom >= 0 && p.stallFrom > m.now {
			return p.stallFrom, evStallStart, true
		}
	case subFreq:
		if p != nil && p.freqApply > 0 && p.freqTarget != 0 {
			return p.freqApply, evFreqApply, true
		}
	case subEnd:
		if p != nil && !(p.freqApply > 0 && p.freqTarget != 0) {
			return p.end, evTransitionEnd, true
		}
	case subDeadline:
		if d.deadlineAt > 0 {
			return d.deadlineAt, evDeadline, true
		}
	}
	return 0, evNone, false
}

// evalCore mirrors the linear scan's per-core candidate logic, evaluated
// against current machine state. The arrival time is recomputed from the
// live (m.now, c.pos) pair, reproducing the scan's final-iteration
// floating-point value bit for bit.
func (m *Machine) evalCore(c *core) (units.Second, evKind, bool) {
	if c.finished {
		return 0, evNone, false
	}
	if c.blockedUntil > m.now {
		return c.blockedUntil, evCoreUnblock, true
	}
	d := m.domainOf(c.id)
	if d.stalledAt(m.now) {
		// The core resumes at the frequency application; that event has
		// its own slot.
		return 0, evNone, false
	}
	nextIdx := c.tr.Total
	if c.idx < len(c.tr.Events) {
		nextIdx = c.tr.Events[c.idx].Index
	}
	remaining := float64(nextIdx) - c.pos
	if remaining <= 0 {
		return m.now, evCoreArrive, true
	}
	rate := c.effRate(d.freq) // instructions/second
	return m.now + units.Second(remaining/rate), evCoreArrive, true
}

// evalSlot evaluates any slot id, returning (time, kind, who, live).
func (m *Machine) evalSlot(slot int32) (units.Second, evKind, int, bool) {
	if slot < 0 {
		i := int(-slot - 1)
		a := &m.scheduled[i]
		if a.done {
			return 0, evNone, -1, false
		}
		return a.t, evSched, i, true
	}
	s := int(slot)
	if s < len(m.cores) {
		t, k, ok := m.evalCore(m.cores[s])
		return t, k, s, ok
	}
	s -= len(m.cores)
	t, k, ok := m.evalDomainSub(m.domains[s/4], s%4)
	return t, k, s / 4, ok
}

func (m *Machine) coreSlot(c *core) int32 { return int32(c.id) }
func (m *Machine) domainSlot(d *domain, sub int) int32 {
	return int32(len(m.cores) + 4*d.id + sub)
}

// --- Slot synchronization (called from every event-affecting mutation) ---

func (m *Machine) syncCore(c *core) {
	if t, _, ok := m.evalCore(c); ok {
		m.eq.set(m.coreSlot(c), t, coreRank(c.id))
	} else {
		m.eq.clear(m.coreSlot(c))
	}
}

func (m *Machine) syncDomainCores(d *domain) {
	for _, c := range d.cores {
		m.syncCore(c)
	}
}

func (m *Machine) syncDomainSub(d *domain, sub int) {
	if t, _, ok := m.evalDomainSub(d, sub); ok {
		m.eq.set(m.domainSlot(d, sub), t, domainRank(d.id, sub))
	} else {
		m.eq.clear(m.domainSlot(d, sub))
	}
}

// syncTransition refreshes the three transition sub-slots of d.
func (m *Machine) syncTransition(d *domain) {
	m.syncDomainSub(d, subStall)
	m.syncDomainSub(d, subFreq)
	m.syncDomainSub(d, subEnd)
}

func (m *Machine) syncDeadline(d *domain) {
	m.syncDomainSub(d, subDeadline)
}

// syncAll rebuilds the queue from scratch; Run calls it once after Init
// so that slots stale-written during boot are discarded wholesale.
// m.scheduled must be empty (Run drains Init-time actions first).
func (m *Machine) syncAll() {
	m.eq.init(len(m.cores) + 4*len(m.domains))
	for _, d := range m.domains {
		m.syncTransition(d)
		m.syncDeadline(d)
	}
	for _, c := range m.cores {
		m.syncCore(c)
	}
}

// --- Scheduled-action queue (tombstoned; O(1) removal) ---

func (m *Machine) pushSched(a schedAction) {
	i := len(m.scheduled)
	m.scheduled = append(m.scheduled, a)
	m.eq.spos = append(m.eq.spos, -1)
	m.schedLive++
	m.eq.set(int32(-i-1), a.t, schedRank(i))
}

// consumeSched tombstones entry i; the backing slice resets only once
// every live entry is consumed, so surviving indices — and with them the
// insertion-order tie-break — stay stable.
func (m *Machine) consumeSched(i int) {
	m.scheduled[i].done = true
	m.eq.clear(int32(-i - 1))
	m.schedLive--
	if m.schedLive == 0 {
		m.scheduled = m.scheduled[:0]
		m.eq.spos = m.eq.spos[:0]
	}
}

// applySched performs a handler effect. The three action kinds replace
// the closures the controller used to allocate per deferred effect.
func (m *Machine) applySched(a *schedAction) {
	d := a.d
	switch a.kind {
	case schedDisable:
		d.disabled = true
	case schedEnable:
		d.disabled = false
	case schedArmDeadline:
		d.deadlineDur = a.dur
		d.deadlineAt = a.expiry
		m.syncDeadline(d)
	}
}

// --- Event extraction ---

// popEvent returns the earliest pending event, removing it from the
// queue. Lazy invalidation: the root is re-evaluated against current
// machine state; vanished slots are dropped, stale cached times are
// re-keyed and the heap re-settled. State is not mutated here, so each
// slot is re-keyed at most once per call and the loop terminates.
//
//suit:hotpath
func (m *Machine) popEvent() (units.Second, evKind, int) {
	for {
		if len(m.eq.nodes) == 0 {
			return 0, evNone, -1
		}
		root := m.eq.nodes[0]
		t, kind, who, ok := m.evalSlot(root.slot)
		if !ok {
			m.eq.removeAt(0)
			continue
		}
		if t != root.t {
			m.eq.nodes[0].t = t
			m.eq.fix(0)
			continue
		}
		m.eq.removeAt(0)
		return t, kind, who
	}
}

// auditQueue verifies the sync invariant: every slot the linear scan
// would consider right now is present in the heap. (Cached times may be
// stale and dead slots may linger — both are resolved lazily at pop.)
// Enabled by the test-only m.audit flag.
func (m *Machine) auditQueue() error {
	for i := range m.scheduled {
		if m.scheduled[i].done {
			continue
		}
		if m.eq.spos[i] < 0 {
			return fmt.Errorf("cpu: audit: live scheduled action %d missing from event queue", i) //lint:allow allocfree audit failure path; m.audit is a test-only flag, never set in sweeps
		}
	}
	for _, d := range m.domains {
		for sub := subStall; sub <= subDeadline; sub++ {
			if _, _, ok := m.evalDomainSub(d, sub); ok && m.eq.pos[m.domainSlot(d, sub)] < 0 {
				return fmt.Errorf("cpu: audit: due domain %d sub-slot %d missing from event queue", d.id, sub) //lint:allow allocfree audit failure path; m.audit is a test-only flag, never set in sweeps
			}
		}
	}
	for _, c := range m.cores {
		if _, _, ok := m.evalCore(c); ok && m.eq.pos[m.coreSlot(c)] < 0 {
			return fmt.Errorf("cpu: audit: due core %d missing from event queue", c.id) //lint:allow allocfree audit failure path; m.audit is a test-only flag, never set in sweeps
		}
	}
	return nil
}
