package cpu

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"suit/internal/dvfs"
	"suit/internal/isa"
	"suit/internal/trace"
	"suit/internal/units"
)

// ffChips are the paper's three evaluation CPUs: 𝒜, ℬ and 𝒞.
var ffChips = [...]func() dvfs.Chip{dvfs.IntelI9_9900K, dvfs.AMDRyzen7700X, dvfs.XeonSilver4208}

// ffOps is the opcode mix of the fast-forward traces: a background op
// that never traps or faults, IMUL, and the faultable set.
var ffOps = append([]isa.Opcode{isa.OpALU, isa.OpIMUL}, isa.Faultable()...)

// unsafeToggle is a pre-SUIT undervolting governor: nothing is ever
// disabled, and every deadline flips the domain between E and Cv, so
// faultable instructions run through ramps in both directions and fault
// part-way up a rising one. It needs cfg.AllowUnsafe.
type unsafeToggle struct{ deadline units.Second }

func (s unsafeToggle) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.RequestAsync(d, ModeE)
		ctl.ArmDeadline(d, s.deadline)
	}
}
func (unsafeToggle) OnDisabledOpcode(Controller, int, int, isa.Opcode) {}
func (s unsafeToggle) OnDeadline(ctl Controller, domain int) {
	next := ModeE
	if ctl.Mode(domain) == ModeE {
		next = ModeCv
	}
	ctl.RequestAsync(domain, next)
	ctl.ArmDeadline(domain, s.deadline)
}

// ffStrategies is the number of strategies ffStrategy chooses from.
const ffStrategies = 9

// ffStrategy returns the k-th strategy the fast-forward oracle drives.
// Strategies 4 and 5 run on a CPU without SUIT's interlock and need
// cfg.AllowUnsafe (see ffUnsafe): unsafePinnedE sits on E with nothing
// disabled, so its faultable arrivals fault, and unsafeToggle faults
// mid-ramp too. Strategies 6–8 are the hostile OS of adversary_test.go,
// which the interlock holds by trapping below the curve.
func ffStrategy(k int, deadline units.Second) Strategy {
	switch k % ffStrategies {
	case 0:
		return fvLite{deadline: deadline}
	case 1:
		return fvThrash{deadline: deadline, window: 20 * deadline, maxExceptions: 3}
	case 2:
		return emulAll{}
	case 3:
		return pinnedBase{}
	case 4:
		return unsafePinnedE{}
	case 5:
		return unsafeToggle{deadline: deadline}
	case 6:
		return advEnableOnly{}
	case 7:
		return advCvEnable{}
	default:
		return advMidRamp{deadline: deadline}
	}
}

// ffUnsafe reports whether strategy k of ffStrategy needs AllowUnsafe.
func ffUnsafe(k int) bool { return k%ffStrategies == 4 || k%ffStrategies == 5 }

// ffConfig is a single-core machine on chip running tr under strategy
// k of ffStrategy. trapIMUL selects the §4.2 ablation with the stock
// IMUL, noReset the fixed-stay deadline ablation of §4.1.
func ffConfig(chip dvfs.Chip, tr *trace.Trace, k int, trapIMUL, noReset bool) Config {
	cfg := testConfig(tr)
	cfg.Chip = chip
	cfg.TrapIMUL = trapIMUL
	cfg.HardenedIMUL = !trapIMUL
	cfg.NoDeadlineReset = noReset
	cfg.AllowUnsafe = ffUnsafe(k)
	return cfg
}

// burstTrace emits twelve bursts of 50–400 events spaced 1–50
// instructions apart. The quiet gaps between bursts last 0.25–4
// deadlines at a nominal 3 GHz, so on every chip some bursts resume
// before the deadline fires and some after. IMUL appears only when imul
// is set; tail instructions follow the last event (0: the last event is
// the stream's last instruction).
func burstTrace(rng *rand.Rand, deadline units.Second, imul bool, tail uint64) *trace.Trace {
	tr := &trace.Trace{Name: "burst", IPC: 1 + rng.Float64()*2}
	quiet := float64(deadline) * tr.IPC * 3e9
	idx := uint64(rng.IntN(1000))
	for b := 0; b < 12; b++ {
		for n := 50 + rng.IntN(350); n > 0; n-- {
			op := ffOps[rng.IntN(len(ffOps))]
			if op == isa.OpIMUL && !imul {
				op = isa.OpALU
			}
			tr.Events = append(tr.Events, trace.Event{Index: idx, Op: op})
			idx += 1 + uint64(rng.IntN(50))
		}
		idx += uint64(quiet * (0.25 + rng.Float64()*3.75))
	}
	tr.Total = tr.Events[len(tr.Events)-1].Index + 1 + tail
	return tr
}

// diffFastForward runs cfg under s on two fresh machines, one through
// Run with fast-forward and one stepped through popEvent and dispatch
// alone, where every arrival goes through the queue. It fails unless
// the dispatched (t, kind, who) sequences and the Results are identical
// bit for bit, and returns the fast-forward machine and its log.
func diffFastForward(t *testing.T, name string, cfg Config, s Strategy) (*Machine, []eventRecord) {
	t.Helper()
	run := func(stepped bool) (*Machine, []eventRecord, Result) {
		m, err := New(cfg, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var log []eventRecord
		m.evLog = &log
		var res Result
		if stepped {
			res, err = runStepped(m, m.popEvent)
		} else {
			res, err = m.Run()
		}
		if err != nil {
			t.Fatalf("%s (stepped=%v): %v", name, stepped, err)
		}
		return m, log, res
	}
	m, ffLog, ffRes := run(false)
	_, stepLog, stepRes := run(true)
	if len(ffLog) != len(stepLog) {
		t.Fatalf("%s: fast-forward dispatched %d events, stepped %d", name, len(ffLog), len(stepLog))
	}
	for i := range ffLog {
		if ffLog[i] != stepLog[i] {
			t.Fatalf("%s: event %d diverges: ff (t=%v kind=%d who=%d) vs stepped (t=%v kind=%d who=%d)",
				name, i, ffLog[i].t, ffLog[i].kind, ffLog[i].who,
				stepLog[i].t, stepLog[i].kind, stepLog[i].who)
		}
	}
	if !reflect.DeepEqual(ffRes, stepRes) {
		t.Fatalf("%s: results diverge:\nff:      %+v\nstepped: %+v", name, ffRes, stepRes)
	}
	return m, ffLog
}

// TestDifferentialFastForwardVsStepped pins the fast-forward loop to
// the plain event-queue stepper on the same machine, over burst traces
// of thousands of events on chips 𝒜, ℬ and 𝒞 under all nine test
// strategies (faults and a hostile OS included), both ablation flags,
// operating-point sampling, and streams that end on their last event or
// run past it, plus sparse random traces. It also checks the loop is not
// vacuous: it must take at least 90% of the arrivals of the burst runs
// whose strategy does not trap or fault by design, and at least one
// arrival while the voltage is still ramping.
func TestDifferentialFastForwardVsStepped(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 404))
	rampStreaks := 0
	for ci, chip := range ffChips {
		for k := 0; k < ffStrategies; k++ {
			for _, variant := range []string{"plain", "trapIMUL", "noReset", "sampled"} {
				deadline := units.Microseconds(float64(5 + rng.IntN(50)))
				tail := uint64(0)
				if rng.IntN(2) == 1 {
					tail = 1 + uint64(rng.IntN(100_000))
				}
				trapIMUL := variant == "trapIMUL"
				cfg := ffConfig(chip(), burstTrace(rng, deadline, trapIMUL, tail), k, trapIMUL, variant == "noReset")
				cfg.Seed = rng.Uint64()
				if variant == "sampled" {
					cfg.SampleEvery = units.Microseconds(50)
				}
				s := ffStrategy(k, deadline)
				name := fmt.Sprintf("chip %d %T %s tail=%d", ci, s, variant, tail)
				m, log := diffFastForward(t, name, cfg, s)

				arrivals := 0
				for _, e := range log {
					if e.kind == evCoreArrive {
						arrivals++
					}
				}
				// emulAll traps every faultable arrival on E, the unsafe
				// strategies' faultable arrivals on E are would-be faults,
				// and the hostile OS re-traps below the curve: the loop
				// declines those by design.
				declinesFaultable := k == 2 || k >= 4
				if !declinesFaultable && float64(m.ff.arrivals) < 0.9*float64(arrivals) {
					t.Errorf("%s: the loop took %d of %d arrivals, want at least 90%%", name, m.ff.arrivals, arrivals)
				}
				rampStreaks += m.ff.rampStreaks
			}
		}
	}
	if rampStreaks == 0 {
		t.Error("no fast-forward streak began while the voltage was ramping")
	}

	for iter := 0; iter < 12; iter++ {
		deadline := units.Microseconds(float64(5 + rng.IntN(50)))
		k := rng.IntN(ffStrategies)
		cfg := ffConfig(ffChips[rng.IntN(len(ffChips))](), randomDiffTrace(rng, uint64(150_000+rng.IntN(400_000))), k, false, false)
		cfg.Seed = rng.Uint64()
		diffFastForward(t, fmt.Sprintf("sparse iter %d", iter), cfg, ffStrategy(k, deadline))
	}
}

// FuzzFastForwardVsStepped holds the fast-forward loop to the stepped
// reference on machines decoded from bytes: byte 0 picks the chip, 1
// the strategy of ffStrategy, 2 the deadline (1–64 µs), and 3 the flags
// (bit 0 TrapIMUL, bit 1 NoDeadlineReset, bits 2+ instructions after
// the last event). Each following byte pair is one event: a gap — 1–128
// instructions, or with the high bit set a quiet gap of up to 520k —
// and an opcode from ffOps.
func FuzzFastForwardVsStepped(f *testing.F) {
	f.Add([]byte{2, 0, 30, 0, 5, 3, 5, 4, 200, 9, 1, 1, 2, 5})
	f.Add([]byte{0, 1, 10, 2, 1, 2, 1, 1, 1, 3, 150, 2, 1, 8, 1, 1})
	f.Add([]byte{1, 4, 20, 1, 3, 1, 3, 5, 255, 1, 2, 6})
	f.Add([]byte{2, 3, 1, 255, 1, 9, 2, 9, 3, 0})
	f.Add([]byte{1, 2, 40, 9, 7, 1, 7, 1, 7, 2, 129, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := int(data[1])
		deadline := units.Microseconds(float64(1 + int(data[2])%64))
		flags := data[3]
		tr := &trace.Trace{Name: "fuzz", IPC: 2}
		idx := uint64(0)
		for i := 4; i+1 < len(data) && len(tr.Events) < 4096; i += 2 {
			if g := uint64(data[i]); g&0x80 != 0 {
				idx += 1 + (g&0x7f)<<12
			} else {
				idx += 1 + g
			}
			tr.Events = append(tr.Events, trace.Event{Index: idx, Op: ffOps[int(data[i+1])%len(ffOps)]})
		}
		tr.Total = idx + 1 + uint64(flags>>2)*997
		cfg := ffConfig(ffChips[int(data[0])%len(ffChips)](), tr, k, flags&1 != 0, flags&2 != 0)
		diffFastForward(t, "fuzz", cfg, ffStrategy(k, deadline))
	})
}
