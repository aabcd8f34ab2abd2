package cpu

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"suit/internal/dvfs"
	"suit/internal/isa"
	"suit/internal/trace"
	"suit/internal/units"
)

// The strategies below are a hostile OS: the party that sets the voltage
// is not the party whose computation faults (the threat model of V0LTpwn
// and Scrooge), so SUIT's hardware must stay safe whatever they do. Each
// one disables the faultable set and selects E at boot, as a well-behaved
// strategy does, and then breaks §3.2 in its own way.

// bootEfficient disables the faultable set, then selects E.
func bootEfficient(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		ctl.DisableInstructions(d)
		ctl.RequestAsync(d, ModeE)
	}
}

// advEnableOnly re-enables the faultable set on #DO and never asks to
// leave E.
type advEnableOnly struct{}

func (advEnableOnly) Init(ctl Controller) { bootEfficient(ctl) }
func (advEnableOnly) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.EnableInstructions(domain)
}
func (advEnableOnly) OnDeadline(Controller, int) {}

// advCvEnable requests Cv on #DO but enables without waiting for it, so
// the faultable set runs during the E→Cv transition.
type advCvEnable struct{}

func (advCvEnable) Init(ctl Controller) { bootEfficient(ctl) }
func (advCvEnable) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.RequestAsync(domain, ModeCv)
	ctl.EnableInstructions(domain)
}
func (advCvEnable) OnDeadline(Controller, int) {}

// advMidRamp behaves on #DO (wait for Cv, enable, arm) and at a deadline
// on Cv (disable, request E, arm). At the next deadline, which fires
// part-way down the Cv→E transition once the deadline outlasts the
// frequency delay, it requests Cf and enables at once: the domain is then
// at E's frequency with a voltage between the two curves.
type advMidRamp struct{ deadline units.Second }

func (advMidRamp) Init(ctl Controller) { bootEfficient(ctl) }
func (s advMidRamp) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	ctl.RequestWait(domain, ModeCv)
	ctl.EnableInstructions(domain)
	ctl.ArmDeadline(domain, s.deadline)
}
func (s advMidRamp) OnDeadline(ctl Controller, domain int) {
	if ctl.Mode(domain) == ModeE {
		ctl.RequestAsync(domain, ModeCf)
		ctl.EnableInstructions(domain)
	} else {
		ctl.DisableInstructions(domain)
		ctl.RequestAsync(domain, ModeE)
	}
	ctl.ArmDeadline(domain, s.deadline)
}

// adversaries returns the three hostile strategies.
func adversaries(deadline units.Second) []Strategy {
	return []Strategy{advEnableOnly{}, advCvEnable{}, advMidRamp{deadline: deadline}}
}

// TestAdversarialOSNeverFaults: whatever the OS does with the controller,
// a SUIT CPU executes no instruction below its margin. Each hostile
// strategy runs on 𝒜, ℬ and 𝒞 over the dense one-core trace and the
// four-core trace, and advMidRamp also over burst traces, whose quiet
// gaps let its deadlines fire mid-transition. Every run must complete.
func TestAdversarialOSNeverFaults(t *testing.T) {
	deadline := units.Microseconds(30)
	check := func(name string, cfg Config, s Strategy) Result {
		t.Helper()
		res := runWith(t, cfg, s)
		if len(res.Faults) != 0 {
			t.Errorf("%s: %d faults, first %+v", name, len(res.Faults), res.Faults[0])
		}
		return res
	}
	for ci, chip := range ffChips {
		for _, s := range adversaries(deadline) {
			for _, traces := range [][]*trace.Trace{denseTrapTraces(20_000_000), multiCoreTraces(20_000_000)} {
				cfg := testConfig(traces...)
				cfg.Chip = chip()
				res := check(fmt.Sprintf("chip %d %T %d cores", ci, s, len(traces)), cfg, s)
				if res.Exceptions == 0 {
					t.Errorf("chip %d %T: no #DO on a dense faultable trace", ci, s)
				}
			}
		}
		// 40 bursts at 30 µs, then 20 at a deadline that lands half-way
		// down the chip's voltage ramp, which ℬ's 668 µs frequency delay
		// needs for the second deadline to fire mid-transition.
		tm := chip().Transition
		rng := rand.New(rand.NewPCG(uint64(ci), 19))
		for i := 0; i < 60; i++ {
			dl := deadline
			if i >= 40 {
				dl = tm.FreqDelay + tm.VoltDelay/2
			}
			cfg := testConfig(burstTrace(rng, dl, false, 0))
			cfg.Chip = chip()
			cfg.Seed = rng.Uint64()
			check(fmt.Sprintf("chip %d advMidRamp burst %d (deadline %v)", ci, i, dl), cfg, advMidRamp{deadline: dl})
		}
	}
}

// advOp is one controller call of a fuzz-decoded OS.
type advOp uint8

const (
	opDisable advOp = iota
	opEnable
	opAsyncBase                                 // opAsyncBase+mode: RequestAsync(mode)
	opWaitBase  = opAsyncBase + advOp(numModes) // opWaitBase+mode: RequestWait(mode)
	opArm       = opWaitBase + advOp(numModes)
	opEmulate   = opArm + 1 // #DO handler only
	// opElse splits a sequence: the ops before it run while the domain
	// does not target E, the ops after it while it does, so one deadline
	// sequence can express advMidRamp's two phases.
	opElse    = opEmulate + 1
	numAdvOps = opElse + 1
)

// advOS runs one decoded op sequence per hook. A sequence holding opElse
// branches on the domain's target mode when the hook starts.
type advOS struct {
	deadline         units.Second
	init, onDO, onDL []advOp
}

func (s advOS) Init(ctl Controller) {
	for d := 0; d < ctl.Domains(); d++ {
		s.run(ctl, d, s.init, 0, false)
	}
}
func (s advOS) OnDisabledOpcode(ctl Controller, domain, core int, op isa.Opcode) {
	s.run(ctl, domain, s.onDO, op, true)
}
func (s advOS) OnDeadline(ctl Controller, domain int) { s.run(ctl, domain, s.onDL, 0, false) }

// run performs ops on domain d. opEmulate emulates the trapped opcode
// inside a #DO handler (inDO) and does nothing elsewhere.
func (s advOS) run(ctl Controller, d int, ops []advOp, trapped isa.Opcode, inDO bool) {
	if i := slices.Index(ops, opElse); i >= 0 {
		if ctl.Mode(d) == ModeE {
			ops = ops[i+1:]
		} else {
			ops = ops[:i]
		}
	}
	for _, op := range ops {
		switch {
		case op == opDisable:
			ctl.DisableInstructions(d)
		case op == opEnable:
			ctl.EnableInstructions(d)
		case op < opWaitBase:
			ctl.RequestAsync(d, Mode(op-opAsyncBase))
		case op < opArm:
			ctl.RequestWait(d, Mode(op-opWaitBase))
		case op == opArm:
			ctl.ArmDeadline(d, s.deadline)
		case op == opEmulate && inDO:
			ctl.Emulate(trapped)
		}
	}
}

// advChips are the fuzz target's CPUs: 𝒜, ℬ, 𝒞 and the i5.
var advChips = [...]func() dvfs.Chip{dvfs.IntelI9_9900K, dvfs.AMDRyzen7700X, dvfs.XeonSilver4208, dvfs.IntelI5_1035G1}

// advStepBudget bounds one fuzz run. A hostile OS can livelock its own
// machine (re-planning a transition on every trap, or re-disabling from
// a deadline that re-arms itself), so the target checks the prefix it
// executed rather than waiting for the step limit.
const advStepBudget = 20_000

// decodeAdvOS decodes FuzzAdversarialOS input; ok is false when data is
// too short to hold the header. Byte 0 picks the chip from advChips (bits
// 0–1) and one or four cores (bit 2); byte 1 the deadline (1–64 µs);
// bytes 2–4 the lengths (0–7) of the Init, #DO and deadline op sequences,
// which follow one op a byte. The remaining byte pairs, up to 1024, are
// events dealt to the cores in turn: a gap — 1–128 instructions, or with
// the high bit set a quiet gap of up to 520k — and an opcode from ffOps.
func decodeAdvOS(data []byte) (cfg Config, s advOS, ok bool) {
	if len(data) < 5 {
		return cfg, s, false
	}
	s.deadline = units.Microseconds(float64(1 + int(data[1])%64))
	rest := data[5:]
	seqs := [3][]advOp{}
	for i := range seqs {
		n := min(int(data[2+i])%8, len(rest))
		for _, b := range rest[:n] {
			seqs[i] = append(seqs[i], advOp(b)%numAdvOps)
		}
		rest = rest[n:]
	}
	s.init, s.onDO, s.onDL = seqs[0], seqs[1], seqs[2]

	cores := 1
	if data[0]&4 != 0 {
		cores = 4
	}
	traces := make([]*trace.Trace, cores)
	next := make([]uint64, cores)
	for c := range traces {
		traces[c] = &trace.Trace{Name: "adv", IPC: 2}
	}
	for i := 0; i+1 < len(rest) && i < 2*1024; i += 2 {
		c := i / 2 % cores
		if g := uint64(rest[i]); g&0x80 != 0 {
			next[c] += 1 + (g&0x7f)<<12
		} else {
			next[c] += 1 + g
		}
		traces[c].Events = append(traces[c].Events, trace.Event{Index: next[c], Op: ffOps[int(rest[i+1])%len(ffOps)]})
	}
	for c, tr := range traces {
		tr.Total = next[c] + 1
	}
	cfg = testConfig(traces...)
	cfg.Chip = advChips[int(data[0]&3)]()
	return cfg, s, true
}

// advSeed encodes a FuzzAdversarialOS input: chip and cores as in byte 0,
// the deadline in µs, the three op sequences and (gap, ffOps index)
// event pairs.
func advSeed(chipCores, deadlineUS byte, init, onDO, onDL []advOp, events ...[2]byte) []byte {
	b := []byte{chipCores, deadlineUS - 1, byte(len(init)), byte(len(onDO)), byte(len(onDL))}
	for _, seq := range [][]advOp{init, onDO, onDL} {
		for _, op := range seq {
			b = append(b, byte(op))
		}
	}
	for _, e := range events {
		b = append(b, e[0], e[1])
	}
	return b
}

// repeatEvents returns n copies of pattern.
func repeatEvents(n int, pattern ...[2]byte) [][2]byte {
	var out [][2]byte
	for range n {
		out = append(out, pattern...)
	}
	return out
}

// FuzzAdversarialOS drives a hostile OS decoded from bytes (see
// decodeAdvOS) against a SUIT CPU: whatever controller calls it makes at
// boot, on #DO and at the deadline, over whatever trace, no instruction
// may execute below its margin. The seeds are the three strategies of
// TestAdversarialOSNeverFaults and two Plundervolt-style drivers.
func FuzzAdversarialOS(f *testing.F) {
	const aesenc, imul = 3, 1 // ffOps indices
	boot := []advOp{opDisable, opAsyncBase + advOp(ModeE)}
	dense := repeatEvents(200, [2]byte{100, aesenc})
	bursts := repeatEvents(6, append(repeatEvents(20, [2]byte{100, aesenc}), [2]byte{0x80 | 60, aesenc})...)
	f.Add(advSeed(2, 30, boot, []advOp{opEnable}, nil, dense...))
	f.Add(advSeed(4, 30, boot, []advOp{opAsyncBase + advOp(ModeCv), opEnable}, nil, dense...)) // four cores of 𝒜
	f.Add(advSeed(2, 40, boot,
		[]advOp{opWaitBase + advOp(ModeCv), opEnable, opArm},
		[]advOp{opDisable, opAsyncBase + advOp(ModeE), opArm, opElse, opAsyncBase + advOp(ModeCf), opEnable, opArm},
		bursts...))
	// Plundervolt-style: compute twice and compare, IMUL then AESENC, in
	// tight bursts whose quiet gaps straddle the deadline, while the OS
	// races E and Cv requests against its expiry.
	twice := append(repeatEvents(30, [2]byte{1, imul}, [2]byte{1, imul}, [2]byte{1, aesenc}, [2]byte{1, aesenc}), [2]byte{0x80 | 30, imul})
	plunder := repeatEvents(4, twice...)
	f.Add(advSeed(0, 20, append(boot, opArm),
		[]advOp{opAsyncBase + advOp(ModeCv), opEnable, opArm, opAsyncBase + advOp(ModeE)},
		[]advOp{opDisable, opAsyncBase + advOp(ModeE), opArm}, plunder...))
	f.Add(advSeed(4|3, 20, append(boot, opArm),
		[]advOp{opEnable, opWaitBase + advOp(ModeCf), opAsyncBase + advOp(ModeE), opArm},
		[]advOp{opAsyncBase + advOp(ModeCv), opEnable, opElse, opDisable, opAsyncBase + advOp(ModeE), opArm}, plunder...))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, s, ok := decodeAdvOS(data)
		if !ok {
			return
		}
		m, err := New(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		m.runInit()
		for !m.runDone && m.stepCount < advStepBudget {
			if err := m.runStep(); err != nil {
				t.Fatal(err)
			}
		}
		if f := m.res.Faults; len(f) != 0 {
			t.Fatalf("%d faults in %d steps, first %+v (init %v, #DO %v, deadline %v)", len(f), m.stepCount, f[0], s.init, s.onDO, s.onDL)
		}
	})
}
