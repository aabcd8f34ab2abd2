package cpu

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"suit/internal/dvfs"
	"suit/internal/isa"
	"suit/internal/trace"
	"suit/internal/units"
)

// runStepped runs m to completion like Run, but takes every event from
// next and hands it to dispatch, with no fast-forward. The differential
// tests use it to swap the event source without a hook in runStep.
func runStepped(m *Machine, next func() (units.Second, evKind, int)) (Result, error) {
	m.runInit()
	for !m.runDone {
		if err := m.dispatch(next()); err != nil {
			return Result{}, err
		}
	}
	return m.finishRun(), nil
}

// nextEventLinear is the pre-scheduler linear scan, kept verbatim as the
// reference implementation for the differential oracle (production
// always uses popEvent). The only change from the original nextEvent is
// skipping tombstoned scheduled entries, whose stable indices reproduce
// the insertion-order tie-break of the old compacting slice.
func (m *Machine) nextEventLinear() (units.Second, evKind, int) {
	best := units.Second(math.Inf(1))
	kind := evNone
	who := -1
	consider := func(t units.Second, k evKind, w int) {
		if k == evNone || t >= best && kind != evNone {
			return
		}
		best, kind, who = t, k, w
	}
	// Deferred handler effects come first so that, at equal timestamps,
	// an instruction-enable lands before the trapped core retries.
	for i := range m.scheduled {
		if m.scheduled[i].done {
			continue
		}
		consider(m.scheduled[i].t, evSched, i)
	}
	for i, d := range m.domains {
		if p := d.pending; p != nil {
			if p.freqApply > 0 && p.freqTarget != 0 {
				if p.stallFrom >= 0 && p.stallFrom > m.now {
					consider(p.stallFrom, evStallStart, i)
				}
				consider(p.freqApply, evFreqApply, i)
			} else {
				consider(p.end, evTransitionEnd, i)
			}
		}
		if d.deadlineAt > 0 {
			consider(d.deadlineAt, evDeadline, i)
		}
	}
	for i, c := range m.cores {
		if c.finished {
			continue
		}
		if c.blockedUntil > m.now {
			consider(c.blockedUntil, evCoreUnblock, i)
			continue
		}
		d := m.domainOf(c.id)
		if d.stalledAt(m.now) {
			// The core resumes at the frequency application; that event
			// is already a candidate.
			continue
		}
		nextIdx := c.tr.Total
		if c.idx < len(c.tr.Events) {
			nextIdx = c.tr.Events[c.idx].Index
		}
		remaining := float64(nextIdx) - c.pos
		if remaining <= 0 {
			consider(m.now, evCoreArrive, i)
			continue
		}
		rate := c.tr.IPC * float64(d.freq) / c.rate // instructions/second
		consider(m.now+units.Second(remaining/rate), evCoreArrive, i)
	}
	return best, kind, who
}

// fvThrash is fvLite plus thrashing prevention: it exercises
// ExceptionsWithin (and thus the exception-ring kept-count formula) on
// every trap.
type fvThrash struct {
	deadline, window units.Second
	maxExceptions    int
}

func (s fvThrash) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.DisableInstructions(d)
		ctl.RequestAsync(d, ModeE)
	}
}
func (s fvThrash) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.RequestWait(domain, ModeCf)
	ctl.RequestAsync(domain, ModeCv)
	ctl.EnableInstructions(domain)
	if ctl.ExceptionsWithin(domain, s.window) > s.maxExceptions {
		return // thrashing: stay conservative, no deadline
	}
	ctl.ArmDeadline(domain, s.deadline)
}
func (s fvThrash) OnDeadline(ctl Controller, domain int) {
	ctl.DisableInstructions(domain)
	ctl.RequestAsync(domain, ModeE)
}

// randomDiffTrace emits faultable events with randomized gaps — dense
// stretches, sparse stretches and back-to-back pairs.
func randomDiffTrace(rng *rand.Rand, total uint64) *trace.Trace {
	tr := &trace.Trace{Name: "diff", Total: total, IPC: 1 + rng.Float64()*2}
	ops := isa.Faultable()
	idx := uint64(rng.IntN(2000))
	for idx < total {
		tr.Events = append(tr.Events, trace.Event{Index: idx, Op: ops[rng.IntN(len(ops))]})
		switch rng.IntN(4) {
		case 0: // back-to-back
			idx++
		case 1: // dense
			idx += 1 + uint64(rng.IntN(300))
		default: // sparse
			idx += 1 + uint64(rng.IntN(150_000))
		}
	}
	return tr
}

// TestDifferentialHeapVsLinear is the scheduler-swap oracle: randomized
// trace/strategy schedules run through both the indexed event queue and
// the retained linear scan (nextEventLinear), and the dispatched
// (t, kind, who) sequences plus the full Results must be identical —
// bitwise, not approximately. The heap machine also runs with the queue
// audit enabled, which re-derives every due slot from machine state
// after each event and fails on any missing or mistimed entry.
func TestDifferentialHeapVsLinear(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 99))
	for iter := 0; iter < 40; iter++ {
		ncores := 1 + rng.IntN(3)
		total := uint64(200_000 + rng.IntN(600_000))
		var trs []*trace.Trace
		for c := 0; c < ncores; c++ {
			trs = append(trs, randomDiffTrace(rng, total))
		}
		cfg := testConfig(trs...)
		cfg.Seed = rng.Uint64()
		if rng.IntN(2) == 1 {
			cfg.Chip = dvfs.AMDRyzen7700X() // per-core frequency domains
		}
		if rng.IntN(3) == 0 {
			cfg.SampleEvery = units.Microseconds(50)
		}
		var s Strategy
		switch rng.IntN(4) {
		case 0:
			s = fvLite{deadline: units.Microseconds(float64(5 + rng.IntN(50)))}
		case 1:
			s = fvThrash{
				deadline:      units.Microseconds(float64(5 + rng.IntN(50))),
				window:        units.Microseconds(float64(100 + rng.IntN(900))),
				maxExceptions: 1 + rng.IntN(5),
			}
		case 2:
			s = emulAll{}
		default:
			s = pinnedBase{}
		}

		runOne := func(linear bool) ([]eventRecord, Result) {
			m, err := New(cfg, s)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			var log []eventRecord
			m.evLog = &log
			var res Result
			if linear {
				res, err = runStepped(m, m.nextEventLinear)
			} else {
				m.audit = true
				res, err = m.Run()
			}
			if err != nil {
				t.Fatalf("iter %d (linear=%v): %v", iter, linear, err)
			}
			return log, res
		}
		heapLog, heapRes := runOne(false)
		linLog, linRes := runOne(true)

		if len(heapLog) != len(linLog) {
			t.Fatalf("iter %d (%T): heap dispatched %d events, linear %d",
				iter, s, len(heapLog), len(linLog))
		}
		for i := range heapLog {
			if heapLog[i] != linLog[i] {
				t.Fatalf("iter %d (%T): event %d diverges: heap (t=%v kind=%d who=%d) vs linear (t=%v kind=%d who=%d)",
					iter, s, i,
					heapLog[i].t, heapLog[i].kind, heapLog[i].who,
					linLog[i].t, linLog[i].kind, linLog[i].who)
			}
		}
		if !reflect.DeepEqual(heapRes, linRes) {
			t.Fatalf("iter %d (%T): results diverge:\nheap:   %+v\nlinear: %+v", iter, s, heapRes, linRes)
		}
	}
}

// TestExceptionRingSteadyStateFlat is the regression test for the old
// unbounded-growth-then-copy d.exceptions pattern: over a dense-trap
// 10⁷-instruction run the ring must stay at its fixed capacity.
// TestStepLoopAllocations holds the ring to its one allocation.
func TestExceptionRingSteadyStateFlat(t *testing.T) {
	tr := hotPathTrace(10_000_000, 500) // ~20k traps, > excRingCap
	cfg := testConfig(tr)
	m, err := New(cfg, emulAll{}) // every faultable event traps and is emulated
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := m.domains[0]
	if d.excTotal <= excRingCap {
		t.Fatalf("want the ring to wrap (> %d traps), got %d", excRingCap, d.excTotal)
	}
	if uint64(res.Exceptions) != d.excTotal {
		t.Fatalf("result counts %d exceptions, ring recorded %d", res.Exceptions, d.excTotal)
	}
	if len(d.exceptions) != excRingCap || cap(d.exceptions) != excRingCap {
		t.Fatalf("ring len/cap = %d/%d, want %d/%d",
			len(d.exceptions), cap(d.exceptions), excRingCap, excRingCap)
	}
	kept := d.excKept()
	if kept < excKeep || kept > excRingCap {
		t.Fatalf("kept count %d outside [%d, %d]", kept, excKeep, excRingCap)
	}
	// Newest-first iteration must be monotonically non-increasing.
	prev := d.excNth(0)
	for i := 1; i < kept; i++ {
		cur := d.excNth(i)
		if cur > prev {
			t.Fatalf("excNth(%d) = %v newer than excNth(%d) = %v", i, cur, i-1, prev)
		}
		prev = cur
	}
}

// TestSchedTombstoneReset checks the O(1) scheduled-action removal: a
// burst of deferred actions consumes in insertion order and the backing
// slice resets (rather than growing) once drained.
func TestSchedTombstoneReset(t *testing.T) {
	tr := hotPathTrace(4_000_000, 1_000)
	cfg := testConfig(tr)
	m, err := New(cfg, fvLite{deadline: units.Microseconds(25)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.schedLive != 0 {
		t.Fatalf("run finished with %d live scheduled actions", m.schedLive)
	}
	if len(m.scheduled) != 0 {
		t.Fatalf("scheduled slice not drained: len %d", len(m.scheduled))
	}
}
