package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"reflect"
	"strconv"
	"sync"
	"time"

	"suit/internal/core"
	"suit/internal/engine"
)

// sweep is an in-process workload: its point list, dealt into rounds,
// runs through the engine one round at a time. Each round is one sweep
// request, cold: a fresh engine, and a base seed no earlier round used,
// so every trace is generated anew, as every suitsweep invocation pays.
type sweep struct {
	e      env
	name   string
	rounds [][]core.Scenario
}

func newSweep(e env, name string, points []core.Scenario, rounds int, stratum func(core.Scenario) string) *sweep {
	return &sweep{e: e, name: name, rounds: deal(points, rounds, stratum)}
}

func (s *sweep) close() error { return nil }

// baseSeed is the engine base seed of one repetition of the point list.
func (s *sweep) baseSeed(cycle int) uint64 {
	return engine.DeriveSeed(s.e.seed, "bench/"+s.name+"/"+strconv.Itoa(cycle))
}

// sweepTally accumulates what the rounds produced.
type sweepTally struct {
	res    *result
	digest hash.Hash
	points int    // points in the first round
	counts [4]int // exceptions, switches, deadline fires, emulated (first round)
	// Each timed round's time, less what tracing adds, and the points of
	// those rounds.
	roundS []float64
	timed  int

	// Traced run only.
	coldMS      []float64 // each cold core.RunJob call
	warmS       float64   // Σ warm core.RunJob calls
	engineSelfS float64   // Σ engine.Run time outside the job function
	instr       float64   // run+base instructions of every point
	events      int64     // trace events of every point
	stats       engine.Stats
}

// run warms up for warmup(seconds), then times rounds for seconds. Both
// phases go round by round through the point list, each repetition of
// the list under a new base seed, and stop at the first round boundary
// after their time. Warm-up rounds, under seeds of their own, are
// checked like the rest but neither timed nor digested. The first timed
// round, which every run completes, is the one digested and counted.
func (s *sweep) run(seconds float64) (*result, error) {
	t := &sweepTally{res: newResult(), digest: sha256.New()}
	warm := &sweepTally{res: t.res, digest: sha256.New()}
	if err := s.repeat(warm, warmup(seconds), -1, -1); err != nil {
		return nil, err
	}
	if err := s.repeat(t, seconds, 0, 1); err != nil {
		return nil, err
	}
	return s.finish(t), nil
}

// repeat runs one round, then more until seconds have passed.
// Repetition k of the list runs as cycle first+step*k, so that warm-up
// (from -1 down) and timed rounds (from 0 up) never share a base seed.
func (s *sweep) repeat(t *sweepTally, seconds float64, first, step int) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		cycle, ri := first+step*(i/len(s.rounds)), i%len(s.rounds)
		if err := s.runRound(t, cycle, ri, s.rounds[ri], s.baseSeed(cycle)); err != nil {
			return err
		}
	}
	return nil
}

// runRound times one cold sweep request and checks its outcomes.
func (s *sweep) runRound(t *sweepTally, cycle, ri int, round []core.Scenario, base uint64) error {
	opts := engine.Options{Workers: 1, BaseSeed: base}
	req := fmt.Sprintf("%s/c%d/r%d", s.name, cycle, ri)
	var (
		outs []core.Outcome
		err  error
		d    time.Duration
		tj   *tracedJob
		eng  *engine.Engine[core.Scenario, core.Outcome]
	)
	if s.e.rec == nil {
		core.SetEngineOptions(opts)
		t0 := time.Now()
		outs, err = core.RunAll(round)
		d = time.Since(t0)
	} else {
		tj = &tracedJob{rec: s.e.rec, workload: s.name}
		eng = engine.New(core.Scenario.Fingerprint, tj.run, opts)
		sp := s.e.rec.open("engine.run", req, 0)
		tj.parent = sp.ID()
		t0 := time.Now()
		outs, err = eng.Run(context.Background(), round)
		d = time.Since(t0)
		sp.end()
	}
	t.res.Attempted += len(round)
	if err != nil {
		t.res.Failed += len(round)
		t.res.fail("%s: round %d of repetition %d: %v", s.name, ri, cycle, err)
		return nil
	}
	cold := d.Seconds()
	if tj != nil {
		// The cold phase of a traced round leaves out the re-runs and
		// regenerations only tracing adds, for the overhead comparison.
		cold -= tj.rerunS + tj.genS
	}
	t.roundS = append(t.roundS, cold)
	t.timed += len(round)
	if tj != nil {
		t.coldMS = append(t.coldMS, tj.coldMS...)
		t.warmS += tj.rerunS
		t.engineSelfS += d.Seconds() - tj.jobS
		t.instr += tj.instr
		t.events += tj.events
		for _, p := range tj.problems {
			t.res.fail("%s", p)
		}
		st := eng.Stats()
		t.stats.Unique += st.Unique
		t.stats.MemHits += st.MemHits + st.DiskHits
		t.stats.Retried += st.Retried
		t.stats.Failed += st.Failed
	}
	for i, o := range outs {
		if n := len(o.Run.Faults) + len(o.Base.Faults); n > 0 {
			t.res.fail("%s: %d silent faults in scenario %s", s.name, n, round[i].Fingerprint())
		}
	}
	if cycle == 0 && ri == 0 {
		enc := json.NewEncoder(t.digest)
		for _, o := range outs {
			if err := enc.Encode(o); err != nil {
				return fmt.Errorf("%s: encoding outcome: %w", s.name, err)
			}
			t.points++
			t.counts[0] += o.Run.Exceptions
			t.counts[1] += o.Run.Switches
			t.counts[2] += o.Run.DeadlineFires
			t.counts[3] += o.Run.Emulated
		}
	}
	return nil
}

func (s *sweep) finish(t *sweepTally) *result {
	r := t.res
	r.Digest = hex.EncodeToString(t.digest.Sum(nil))
	r.Metrics["points_per_s"] = float64(t.timed) / sum(t.roundS)
	r.Metrics["job_p50_ms"] = median(t.roundS) * 1e3
	q1, q3 := quartiles(t.roundS)
	r.note("%s: %d rounds of %d points timed, round time p50 %.4g ms [q1 %.4g, q3 %.4g]",
		s.name, len(t.roundS), len(s.rounds[0]), median(t.roundS)*1e3, q1*1e3, q3*1e3)
	if s.e.rec == nil {
		return r
	}
	step := t.warmS * 1e3
	gen := sum(t.coldMS) - step
	L := r.Layers
	L["trace.gen_ms"] = gen
	L["trace.events"] = float64(t.events)
	L["trace.ns_per_event"] = gen * 1e6 / float64(max(t.events, 1))
	L["cpu.step_ms"] = step
	L["cpu.minstr_per_s"] = t.instr / 1e6 / t.warmS
	pp := float64(max(t.points, 1))
	L["cpu.exceptions_per_point"] = float64(t.counts[0]) / pp
	L["cpu.switches_per_point"] = float64(t.counts[1]) / pp
	L["cpu.deadline_fires_per_point"] = float64(t.counts[2]) / pp
	L["cpu.emulated_per_point"] = float64(t.counts[3]) / pp
	L["core.run_ms_p50"] = median(t.coldMS)
	L["core.run_ms_tail"] = r.tailNote("core.run_ms", t.coldMS)
	L["engine.self_ms"] = t.engineSelfS * 1e3
	L["engine.hit_ratio"] = float64(t.stats.MemHits) / float64(max(t.stats.Unique, 1))
	L["engine.retried"] = float64(t.stats.Retried)
	L["engine.failed"] = float64(t.stats.Failed)
	return r
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tracedJob is the traced run's engine RunFunc. Around the production
// core.RunJob call it adds what only a traced run may: a second, warm
// call with the same seed (its trace artifacts are resident, so cold
// minus warm is trace generation and warm is cpu stepping), a check that
// both outcomes are equal, and a regeneration of the scenario's trace
// streams to count their events.
type tracedJob struct {
	rec      *recorder
	workload string
	parent   int64

	mu       sync.Mutex
	coldMS   []float64
	rerunS   float64
	genS     float64
	jobS     float64
	instr    float64
	events   int64
	problems []string
}

func (j *tracedJob) run(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
	start := time.Now()
	req := strconv.FormatUint(seed, 16)
	job := j.rec.open("bench.job", req, j.parent)
	defer job.end()

	sp := j.rec.open("core.run", req, job.ID())
	cold, err := core.RunJob(ctx, sc, seed)
	sp.end()
	coldAt := time.Now()
	if err != nil {
		return cold, err
	}

	sp = j.rec.open("cpu.rerun", req, job.ID())
	warm, err := core.RunJob(ctx, sc, seed)
	sp.end()
	warmAt := time.Now()
	if err != nil {
		return cold, err
	}

	sp = j.rec.open("trace.generate", req, job.ID())
	events, err := traceEvents(sc, seed)
	sp.end()
	genAt := time.Now()
	if err != nil {
		return cold, err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if !reflect.DeepEqual(cold, warm) {
		j.problems = append(j.problems, fmt.Sprintf("%s: warm re-run differs from the cold run for scenario %s", j.workload, sc.Fingerprint()))
	}
	j.coldMS = append(j.coldMS, coldAt.Sub(start).Seconds()*1e3)
	j.rerunS += warmAt.Sub(coldAt).Seconds()
	j.genS += genAt.Sub(warmAt).Seconds()
	j.jobS += time.Since(start).Seconds()
	j.instr += float64(warm.Run.Instructions + warm.Base.Instructions)
	j.events += events
	return cold, nil
}

// traceEvents regenerates the scenario's per-core trace streams, with the
// seeds core.Run derives for them, and counts their events.
func traceEvents(sc core.Scenario, seed uint64) (int64, error) {
	if sc.Seed == 0 {
		sc.Seed = seed
	}
	var n int64
	for i := 0; i < max(sc.Cores, 1); i++ {
		tr, err := sc.Bench.GenerateTrace(sc.Instructions, sc.Seed+uint64(i)*7919+1)
		if err != nil {
			return 0, err
		}
		n += int64(len(tr.Events))
	}
	return n, nil
}
