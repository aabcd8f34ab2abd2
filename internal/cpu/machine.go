// Package cpu implements the event-driven CPU simulator of §6.2 (Fig 15):
// a machine executes one recorded instruction stream per core while an
// operating-strategy (the OS half of SUIT) reacts to Disabled Opcode
// exceptions and deadline-timer interrupts through the controller
// interface of Listing 1. The machine models DVFS domains with the
// measured transition delays, the #DO trap with its measured exception
// delay, the deadline timer with hardware reset-on-faultable-execution,
// per-epoch package energy accounting, and a fault monitor that records
// any faultable instruction executed below its safe voltage — the
// security property SUIT must uphold and unsafe undervolting violates.
package cpu

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"suit/internal/dvfs"
	"suit/internal/emul"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/power"
	"suit/internal/trace"
	"suit/internal/units"
)

// Mode identifies an operating point of the SUIT state machine (Fig 4).
type Mode uint8

// Operating points. ModeBase is the pre-SUIT baseline: the vendor curve at
// the TDP-sustainable state with no undervolt. ModeE is the efficient
// curve; ModeCf the conservative curve reached by lowering the frequency
// at the efficient voltage; ModeCv the conservative curve at full
// frequency and voltage.
const (
	ModeBase Mode = iota
	ModeE
	ModeCf
	ModeCv
	numModes
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "base"
	case ModeE:
		return "E"
	case ModeCf:
		return "Cf"
	case ModeCv:
		return "Cv"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Point is a concrete operating point.
type Point struct {
	F units.Hertz
	V units.Volt
}

// Points are the machine's resolved operating points.
type Points struct {
	Base Point // conservative curve, no undervolt, TDP-sustainable
	E    Point // efficient curve: higher sustainable frequency, V−offset
	Cf   Point // conservative curve at the efficient voltage (lower f)
	Cv   Point // conservative curve at the efficient frequency (full V)
}

// Get returns the point for a mode.
func (p Points) Get(m Mode) Point {
	switch m {
	case ModeE:
		return p.E
	case ModeCf:
		return p.Cf
	case ModeCv:
		return p.Cv
	default:
		return p.Base
	}
}

// Config assembles a machine.
type Config struct {
	Chip dvfs.Chip
	// Traces holds one instruction stream per core to simulate; its
	// length sets the number of active cores (≤ Chip.Cores).
	Traces []*trace.Trace
	// Offset is the efficient-curve undervolt (negative, e.g. −97 mV).
	Offset units.Volt
	// Faults is the voltage-margin model used for curve determination
	// and the fault monitor.
	Faults *guardband.Model
	// HardenedIMUL selects the SUIT CPU with the 4-cycle IMUL.
	HardenedIMUL bool
	// IMULOverhead is the per-core relative slowdown of the hardened
	// IMUL for this workload (§6.1; from internal/uarch). Applied as a
	// reduction of the effective execution rate.
	IMULOverhead []float64
	// ExceptionDelay is the #DO entry+exit cost (§5.3).
	ExceptionDelay units.Second
	// Emul prices instruction emulation (§5.3 call delay + work).
	Emul emul.CostModel
	// AllowUnsafe models a pre-SUIT CPU with no §3.2 interlock in either
	// direction: E may be selected with the faultable instructions
	// enabled, enabling them does not leave E, and nothing traps below
	// the curve. It is the attack baseline; SUIT machines leave it false.
	AllowUnsafe bool
	// Seed drives transition-delay jitter.
	Seed uint64
	// RecordTimeline captures curve-switch events (domain 0) in
	// Result.Timeline — the raw material of Figs 5 and 6.
	RecordTimeline bool
	// SampleEvery, when positive, samples domain 0's operating point
	// (frequency, instantaneous voltage, mode) on a fixed grid into
	// Result.Samples — the simulator-side analogue of the §5.2 polling
	// loops, and the direct data behind Fig 6's voltage/frequency traces.
	SampleEvery units.Second

	// DomainOf, when non-nil, overrides the chip's domain topology with
	// an explicit core→domain mapping (one entry per trace; domain ids
	// must be contiguous from 0). Cluster-granular DVFS domains are what
	// make SUIT-aware scheduling interesting (§7's Nest-style placement,
	// internal/sched).
	DomainOf []int

	// TrustedTraces skips per-trace validation in Validate. Set it only
	// for traces that were already validated once — e.g. shared immutable
	// artifacts from internal/core's trace cache, where re-walking a
	// 50k-event stream per sweep point costs more than the point's own
	// stepping.
	TrustedTraces bool

	// ExecuteEmulation runs the actual software replacement from
	// internal/emul for every emulated trap (on deterministic synthetic
	// operands) instead of only charging its cost — proving each trapped
	// opcode really has a working emulation. Expensive for emulation-
	// heavy runs; intended for verification passes.
	ExecuteEmulation bool

	// Ablation hooks (not part of the SUIT design; used to quantify the
	// design decisions of §4):
	//
	// NoDeadlineReset disables the hardware behaviour of §4.1 where
	// executing a faultable instruction restarts the deadline timer —
	// the timer then measures a fixed stay after the *first* trap.
	NoDeadlineReset bool
	// TrapIMUL treats IMUL as a member of the disabled set instead of
	// hardening it — the configuration §4.2 argues against (a trap every
	// ~560 instructions pins the CPU to the conservative curve).
	TrapIMUL bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Chip.Validate(); err != nil {
		return err
	}
	if len(c.Traces) == 0 {
		return errors.New("cpu: need at least one trace")
	}
	if len(c.Traces) > c.Chip.Cores {
		return fmt.Errorf("cpu: %d traces exceed %d cores", len(c.Traces), c.Chip.Cores)
	}
	for i, tr := range c.Traces {
		if tr == nil {
			return fmt.Errorf("cpu: trace %d is nil", i)
		}
		if c.TrustedTraces {
			continue
		}
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("cpu: trace %d: %w", i, err)
		}
	}
	if c.Offset > 0 {
		return fmt.Errorf("cpu: positive undervolt offset %v", c.Offset)
	}
	if c.Faults == nil {
		return errors.New("cpu: nil fault model")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if len(c.IMULOverhead) != 0 && len(c.IMULOverhead) != len(c.Traces) {
		return errors.New("cpu: IMULOverhead length must match traces")
	}
	if c.ExceptionDelay < 0 {
		return errors.New("cpu: negative exception delay")
	}
	if c.DomainOf != nil {
		if len(c.DomainOf) != len(c.Traces) {
			return fmt.Errorf("cpu: DomainOf has %d entries for %d traces", len(c.DomainOf), len(c.Traces))
		}
		seen := map[int]bool{}
		maxID := -1
		for i, d := range c.DomainOf {
			if d < 0 {
				return fmt.Errorf("cpu: DomainOf[%d] = %d negative", i, d)
			}
			seen[d] = true
			if d > maxID {
				maxID = d
			}
		}
		for d := 0; d <= maxID; d++ {
			if !seen[d] {
				return fmt.Errorf("cpu: DomainOf skips domain %d", d)
			}
		}
	}
	return nil
}

// FaultRecord is one silent-data-corruption event: a faultable instruction
// executed while the supply voltage was below its requirement.
type FaultRecord struct {
	T      units.Second
	Core   int
	Op     isa.Opcode
	V      units.Volt
	Margin units.Volt // how far below the safe voltage it executed
}

// Result summarises one run.
type Result struct {
	// Duration is the wall-clock time until the last core finished.
	Duration units.Second
	// PerCore is each core's completion time.
	PerCore []units.Second
	// Energy is the package energy over Duration; AvgPower its mean.
	Energy   units.Joule
	AvgPower units.Watt
	// RAPLCounter is the final package energy-status reading.
	RAPLCounter uint32
	// Exceptions is the number of #DO traps; Emulated the subset resolved
	// by emulation; Switches the number of p-state transition requests.
	Exceptions int
	Emulated   int
	Switches   int
	// DeadlineFires counts timer interrupts delivered to the strategy.
	DeadlineFires int
	// Residency is the time the (first) domain spent at each mode.
	Residency [numModes]units.Second
	// Faults are the recorded silent corruptions (must be empty for any
	// SUIT configuration).
	Faults []FaultRecord
	// Instructions is the total committed over all cores.
	Instructions uint64
	// Timeline holds domain 0's curve-switch requests when
	// Config.RecordTimeline is set (capped at timelineCap entries).
	Timeline []ModeChange
	// Samples holds the fixed-grid operating-point samples when
	// Config.SampleEvery is set (capped at timelineCap entries).
	Samples []StateSample
}

// StateSample is one operating-point observation of domain 0.
type StateSample struct {
	T    units.Second
	F    units.Hertz
	V    units.Volt
	Mode Mode
}

// ModeChange is one curve-switch request on the timeline.
type ModeChange struct {
	T    units.Second
	Mode Mode
}

// timelineCap bounds timeline memory for switch-heavy runs.
const timelineCap = 1 << 18

// EfficientShare returns the fraction of time on the efficient curve.
func (r Result) EfficientShare() float64 {
	var tot units.Second
	for _, d := range r.Residency {
		tot += d
	}
	if tot == 0 {
		return 0
	}
	return float64(r.Residency[ModeE] / tot)
}

// core is one simulated core's execution state.
type core struct {
	id       int
	tr       *trace.Trace
	idx      int     // next trace event
	pos      float64 // current instruction index (fractional progress)
	rate     float64 // slowdown divisor: 1 + IMULOverhead
	finished bool
	// blockedUntil: the core executes nothing before this time (handler
	// execution, emulation, wait-for-transition).
	blockedUntil units.Second
	// retry: the pending faultable instruction trapped and must
	// re-execute once the core unblocks.
	retry bool
	done  units.Second // completion time

	// Effective-rate memo: IPC·f/rate is a pure function of the domain
	// frequency (IPC and the slowdown divisor are fixed per core), so the
	// division — evaluated once per arrival and per power segment — is
	// cached keyed on freq alone.
	rateOK   bool
	rateFreq units.Hertz
	rateVal  float64
}

// effRate returns the core's effective execution rate in
// instructions/second at domain frequency f: the exact expression
// c.tr.IPC * float64(f) / c.rate, memoized on f so the hot path pays a
// compare instead of a divide. Identical bits by purity — same operands,
// same operation, same result.
func (c *core) effRate(f units.Hertz) float64 {
	if !c.rateOK || c.rateFreq != f {
		c.rateVal = c.tr.IPC * float64(f) / c.rate
		c.rateFreq = f
		c.rateOK = true
	}
	return c.rateVal
}

// transition is an in-flight p-state change of a domain.
type transition struct {
	target     Mode
	freqTarget units.Hertz
	freqApply  units.Second // when the new frequency takes effect (0 = none)
	stallFrom  units.Second
	voltDone   units.Second // when the ramp ends (0 = none pending)
	end        units.Second
	// safeAt is when the domain is safely *at* the target curve for the
	// purpose of re-enabling instructions: rising-voltage transitions
	// must settle fully, falling-voltage ones only need the frequency
	// applied (the residual voltage drop only adds margin).
	safeAt units.Second
}

// domain is one frequency(+voltage) domain.
type domain struct {
	id    int
	cores []*core

	mode   Mode // residency attribution: last *completed* target
	target Mode // requested target
	freq   units.Hertz
	ramp   // voltage trajectory

	disabled bool // faultable instructions disabled (hardware state)
	// disabledView is the OS-visible value: handler writes become
	// visible here immediately while the hardware effect lands at the
	// handler clock.
	disabledView bool

	pending *transition
	// pendBuf backs pending: transitions are planned into this embedded
	// record instead of a fresh allocation per request (requestTransition
	// fully consumes any superseded plan before overwriting it).
	pendBuf transition

	deadlineAt  units.Second // 0 = disarmed
	deadlineDur units.Second

	// exceptions holds recent #DO timestamps for thrashing prevention.
	// It fills to excRingCap entries and then becomes a ring indexed by
	// excTotal (see recordException/excKept/excNth in run.go).
	exceptions []units.Second
	excTotal   uint64 // total #DO recorded over the run

	// ep is the open energy epoch (see closeEpoch in run.go).
	ep epoch

	// Conservative-curve voltage at the current frequency, memoized for
	// the per-arrival safety monitor. VoltageAt is a pure function of the
	// frequency, so the cache is keyed on freq alone.
	consVOK   bool
	consVFreq units.Hertz
	consV     units.Volt
}

// ramp is a domain's voltage trajectory: volt until voltT0, a linear
// regulator ramp to voltGoal over [voltT0, voltT1], voltGoal after. A
// settled trajectory (voltT1 == voltT0) is voltGoal throughout.
type ramp struct {
	volt     units.Volt // voltage at voltT0 (start of the ramp)
	voltGoal units.Volt
	voltT0   units.Second // ramp start time
	voltT1   units.Second // ramp end (== voltT0 when settled)
}

// voltAt returns the voltage at time t.
func (r *ramp) voltAt(t units.Second) units.Volt {
	if t >= r.voltT1 || r.voltT1 == r.voltT0 {
		return r.voltGoal
	}
	if t <= r.voltT0 {
		return r.volt
	}
	frac := float64(t-r.voltT0) / float64(r.voltT1-r.voltT0)
	return r.volt + units.Volt(frac)*(r.voltGoal-r.volt)
}

// epoch is a stretch of time over which a domain's power draw is one
// fixed function of time: the dynamic coefficient CoreCeff·f·Σactivity
// and the voltage trajectory both stayed put since t0. Its energy is
// charged in closed form when either changes (see closeEpoch).
type epoch struct {
	t0   units.Second // opened at
	dyn  float64      // CoreCeff·f·Σactivity in force since t0
	ramp ramp         // trajectory in force since t0
}

// stalledAt reports whether the domain cores are stalled by a frequency
// change at time t.
func (d *domain) stalledAt(t units.Second) bool {
	return d.pending != nil && d.pending.freqApply > 0 &&
		t >= d.pending.stallFrom && t < d.pending.freqApply
}

// Machine is the simulated CPU.
type Machine struct {
	cfg     Config
	pts     Points
	cons    dvfs.Curve // conservative (vendor) curve
	domains []*domain
	cores   []*core
	rng     *rand.Rand

	now      units.Second
	rapl     *power.RAPL
	strategy Strategy
	// energy is the core energy in joules of every closed epoch.
	energy float64

	// voltExp is the resolved dynamic-power exponent (Config default
	// applied once); uncoreW the precomputed package floor in watts.
	voltExp float64
	uncoreW float64
	// physMargin is Faults.PhysicalMargin per opcode, precomputed so the
	// per-arrival safety monitor indexes an array instead of hashing into
	// the model's margin map.
	physMargin [isa.NumOpcodes]units.Volt
	// trapped marks the opcodes the disable MSR traps: the faultable set,
	// plus IMUL under the TrapIMUL ablation.
	trapped [isa.NumOpcodes]bool

	// handlerTime is the OS-handler clock while a strategy hook runs.
	handlerTime units.Second
	// handlerCore is the core executing the current #DO handler (-1 in
	// timer context).
	handlerCore int
	// scheduled holds handler effects that land later in simulated time.
	// Entries are tombstoned in place (done flag) and the slice resets
	// once all are consumed, keeping indices — and the insertion-order
	// tie-break — stable with O(1) removal.
	scheduled []schedAction
	schedLive int
	// eq is the indexed event scheduler (see eventq.go).
	eq eventQueue
	// nextSample is the next grid point when SampleEvery is active.
	nextSample units.Second
	// coreDomain maps core → domain when Config.DomainOf is set.
	coreDomain []int

	// Run-loop state, held on the machine so tests can drive the step
	// loop one runStep at a time.
	runDone   bool
	stepCount int
	// ffEligible marks a single-core single-domain topology, the shape
	// fastForward's inline arrival processing is specialised for.
	ffEligible bool
	// ff counts what fastForward took: arrivals, and streaks that began
	// while the voltage was still ramping. Tests read it to show the
	// fast-forward oracle is not vacuous; it is kept off Result.
	ff struct{ arrivals, rampStreaks int }

	// Test hooks: audit cross-checks the heap after every event; evLog
	// records the dispatched (t, kind, who) sequence.
	audit bool
	evLog *[]eventRecord

	res Result
}

// schedKind enumerates the deferred handler effects.
type schedKind uint8

const (
	schedDisable schedKind = iota
	schedEnable
	schedArmDeadline
)

// schedAction is a deferred handler effect as plain data (no closure):
// kind selects the operation in applySched, d its target domain.
type schedAction struct {
	t           units.Second
	kind        schedKind
	d           *domain
	dur, expiry units.Second // deadline arming parameters
	done        bool         // consumed (tombstone)
}

// New builds a machine. The operating points are resolved from the chip,
// the fault model and the offset: the efficient point gets the TDP
// headroom the undervolt frees up (§5.4).
func New(cfg Config, strategy Strategy) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil {
		return nil, errors.New("cpu: nil strategy")
	}
	chip := cfg.Chip
	// P-states are provisioned for the all-core sustained load: vendors
	// pick the guaranteed base bins assuming every core is busy, and the
	// paper's measured frequency gains (Table 2) are all-core SPEC runs.
	baseState := chip.SustainableState(chip.Vendor, 0, chip.Cores)
	effState := chip.SustainableState(chip.Vendor, cfg.Offset, chip.Cores)
	fE := effState.F
	vE := chip.Vendor.VoltageAt(fE) + cfg.Offset
	// Cf: the highest frequency the conservative curve certifies at the
	// efficient voltage (Fig 4's horizontal move), floored to the bus
	// clock granularity the ratio field can express.
	fCf := chip.Vendor.FrequencyAt(vE)
	if chip.BusClock > 0 {
		fCf = units.Hertz(math.Floor(float64(fCf)/float64(chip.BusClock))) * chip.BusClock
	}
	if min := chip.Vendor.Min().F; fCf < min {
		fCf = min
	}
	// Cv is the conservative curve at full sustained performance. The
	// undervolt-earned frequency headroom evaporates at full voltage —
	// sustaining fE at the conservative voltage would exceed the TDP —
	// so Cv coincides with the baseline operating point.
	pts := Points{
		Base: Point{F: baseState.F, V: chip.Vendor.VoltageAt(baseState.F)},
		E:    Point{F: fE, V: vE},
		Cf:   Point{F: fCf, V: vE},
		Cv:   Point{F: baseState.F, V: chip.Vendor.VoltageAt(baseState.F)},
	}

	m := &Machine{
		cfg:         cfg,
		pts:         pts,
		cons:        chip.Vendor,
		rng:         rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5DEECE66D)),
		rapl:        power.NewRAPL(0),
		strategy:    strategy,
		handlerCore: -1,
	}
	m.voltExp = cfg.Chip.Power.VoltExp
	if m.voltExp == 0 {
		m.voltExp = 2
	}
	for op := 0; op < isa.NumOpcodes; op++ {
		m.physMargin[op] = cfg.Faults.PhysicalMargin(isa.Opcode(op), cfg.HardenedIMUL)
		m.trapped[op] = isa.FaultableMask.Has(isa.Opcode(op)) || (cfg.TrapIMUL && isa.Opcode(op) == isa.OpIMUL)
	}

	for i, tr := range cfg.Traces {
		rate := 1.0
		if len(cfg.IMULOverhead) > 0 {
			rate = 1 + cfg.IMULOverhead[i]
		}
		m.cores = append(m.cores, &core{id: i, tr: tr, rate: rate})
	}

	switch {
	case cfg.DomainOf != nil:
		maxID := 0
		for _, d := range cfg.DomainOf {
			if d > maxID {
				maxID = d
			}
		}
		groups := make([][]*core, maxID+1)
		for i, c := range m.cores {
			d := cfg.DomainOf[i]
			groups[d] = append(groups[d], c)
		}
		m.coreDomain = cfg.DomainOf
		for id, g := range groups {
			m.domains = append(m.domains, newDomain(id, g, pts.Base))
		}
	case chip.Domains == dvfs.SingleDomain:
		m.domains = []*domain{newDomain(0, m.cores, pts.Base)}
	default:
		for i, c := range m.cores {
			m.domains = append(m.domains, newDomain(i, []*core{c}, pts.Base))
		}
	}
	m.res.PerCore = make([]units.Second, len(m.cores))
	// The package floor draws the same power all run long, so finishRun
	// charges it once over the whole duration.
	pm := cfg.Chip.Power
	m.uncoreW = float64(pm.Uncore) + float64(pm.UncorePerCore)*float64(len(m.cores))
	m.ffEligible = len(m.cores) == 1 && len(m.domains) == 1
	m.eq.init(len(m.cores) + 4*len(m.domains))
	return m, nil
}

func newDomain(id int, cores []*core, start Point) *domain {
	return &domain{
		id:     id,
		cores:  cores,
		mode:   ModeBase,
		target: ModeBase,
		freq:   start.F,
		ramp:   ramp{volt: start.V, voltGoal: start.V},
		// The exception ring (64 KiB per domain at excRingCap) is
		// allocated lazily on the first #DO in recordException: trap-free
		// runs — every non-SUIT baseline machine — never pay for it.
	}
}

// consVolt returns the conservative-curve voltage at the domain's current
// frequency, which the interlock's trap test and the safety monitor
// compare the instantaneous voltage with.
func (m *Machine) consVolt(d *domain) units.Volt {
	if !d.consVOK || d.consVFreq != d.freq {
		d.consV = m.cons.VoltageAt(d.freq)
		d.consVFreq = d.freq
		d.consVOK = true
	}
	return d.consV
}

// effExceptionDelay returns the configured #DO entry/exit cost, with a
// minimum so that zero-cost configs still order events sanely.
func (m *Machine) effExceptionDelay() units.Second {
	if m.cfg.ExceptionDelay > 0 {
		return m.cfg.ExceptionDelay
	}
	return units.Second(1e-9)
}
