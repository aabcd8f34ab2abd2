// Package sched implements the scheduling direction the paper points at in
// §7 ("similar scheduling methods could also be used in conjunction with
// SUIT to minimize DVFS curve changes", citing Nest): on a machine with
// cluster-granular DVFS domains, *where* the OS places tasks decides how
// many clusters SUIT can keep on the efficient curve.
//
// The insight is dual to Nest's: a workload with dense faultable
// instructions parks its whole domain on the conservative curve, so
// spreading such workloads poisons every cluster, while packing them
// together sacrifices one cluster and leaves the rest efficient. The
// package provides the two policies and an evaluator that runs a
// placement end to end on the event-driven machine.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"suit/internal/cpu"
	"suit/internal/dvfs"
	"suit/internal/emul"
	"suit/internal/guardband"
	"suit/internal/isa"
	"suit/internal/metrics"
	"suit/internal/strategy"
	"suit/internal/trace"
	"suit/internal/units"
	"suit/internal/workload"
)

// Assignment maps each task (by index) to a DVFS cluster.
type Assignment []int

// Validate checks the assignment against the cluster count and capacity.
func (a Assignment) Validate(nClusters, coresPerCluster int) error {
	load := make([]int, nClusters)
	for i, c := range a {
		if c < 0 || c >= nClusters {
			return fmt.Errorf("sched: task %d assigned to cluster %d of %d", i, c, nClusters)
		}
		load[c]++
		if load[c] > coresPerCluster {
			return fmt.Errorf("sched: cluster %d over capacity (%d cores)", c, coresPerCluster)
		}
	}
	return nil
}

// FaultableDensity estimates a workload's faultable instructions per
// dynamic instruction — the quantity placement decisions key on (an OS
// would read it from the per-task #DO count MSR).
func FaultableDensity(b workload.Benchmark) float64 {
	d := 0.0
	if b.BurstEvery > 0 {
		d += b.BurstLen / b.BurstEvery
	}
	if b.PoissonGap > 0 {
		d += 1 / b.PoissonGap
	}
	return d
}

// Spread distributes tasks round-robin across clusters — the
// SUIT-oblivious default an existing scheduler would produce.
func Spread(tasks []workload.Benchmark, nClusters int) Assignment {
	a := make(Assignment, len(tasks))
	for i := range tasks {
		a[i] = i % nClusters
	}
	return a
}

// PackByDensity sorts tasks by faultable density and fills clusters from
// the densest down, so conservative-curve-bound tasks share domains and
// the remaining clusters stay efficient.
func PackByDensity(tasks []workload.Benchmark, nClusters, coresPerCluster int) Assignment {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return FaultableDensity(tasks[order[x]]) > FaultableDensity(tasks[order[y]])
	})
	a := make(Assignment, len(tasks))
	for rank, task := range order {
		a[task] = (rank / coresPerCluster) % nClusters
	}
	return a
}

// Result aggregates one placement's run against the pinned-conservative
// baseline of the same placement.
type Result struct {
	Assignment Assignment
	// Perf/Power/Eff are whole-machine changes vs the baseline.
	Change metrics.Change
	Eff    float64
	// PerTask is each task's completion time.
	PerTask []units.Second
	// EfficientShares is each cluster's efficient-curve residency.
	Exceptions int
}

// Config describes the scheduling experiment.
type Config struct {
	// Chip provides curves, power and transition models; its cores must
	// cover Clusters × CoresPerCluster.
	Chip            dvfs.Chip
	Clusters        int
	CoresPerCluster int
	Tasks           []workload.Benchmark
	// Instructions per task stream (default 2·10⁸).
	Instructions uint64
	SpendAging   bool
	Seed         uint64
}

func (c Config) validate() error {
	if c.Clusters < 1 || c.CoresPerCluster < 1 {
		return errors.New("sched: need at least one cluster and core")
	}
	if c.Clusters*c.CoresPerCluster > c.Chip.Cores {
		return fmt.Errorf("sched: %d×%d cores exceed the chip's %d",
			c.Clusters, c.CoresPerCluster, c.Chip.Cores)
	}
	if len(c.Tasks) == 0 {
		return errors.New("sched: no tasks")
	}
	for i, t := range c.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("sched: task %d: %w", i, err)
		}
	}
	return nil
}

// Evaluate runs the assignment on the machine and returns the aggregate
// outcome relative to the pinned-baseline run of the same placement.
func Evaluate(c Config, a Assignment) (Result, error) {
	if err := c.validate(); err != nil {
		return Result{}, err
	}
	if err := a.Validate(c.Clusters, c.CoresPerCluster); err != nil {
		return Result{}, err
	}
	if len(a) != len(c.Tasks) {
		return Result{}, fmt.Errorf("sched: %d assignments for %d tasks", len(a), len(c.Tasks))
	}
	total := c.Instructions
	if total == 0 {
		total = 200_000_000
	}

	gb := guardband.Default()
	offset := gb.EfficientOffset(isa.FaultableMask, true, c.SpendAging)

	mkTraces := func() ([]*trace.Trace, error) {
		out := make([]*trace.Trace, len(c.Tasks))
		for i, t := range c.Tasks {
			tr, err := t.GenerateTrace(total, c.Seed+uint64(i)*7919+1)
			if err != nil {
				return nil, err
			}
			out[i] = tr
		}
		return out, nil
	}

	run := func(strat cpu.Strategy, hardened bool) (cpu.Result, error) {
		traces, err := mkTraces()
		if err != nil {
			return cpu.Result{}, err
		}
		m, err := cpu.New(cpu.Config{
			Chip:           c.Chip,
			Traces:         traces,
			Offset:         offset,
			Faults:         gb,
			HardenedIMUL:   hardened,
			ExceptionDelay: c.Chip.ExceptionDelay,
			Emul:           emul.NewCostModel(c.Chip.EmulCallDelay),
			Seed:           c.Seed,
			DomainOf:       a,
		}, strat)
		if err != nil {
			return cpu.Result{}, err
		}
		return m.Run()
	}

	base, err := run(strategy.Pinned{M: cpu.ModeBase}, false)
	if err != nil {
		return Result{}, err
	}
	params := strategy.ParamsAC()
	if c.Chip.Transition.FreqDelay > units.Microseconds(100) {
		params = strategy.ParamsB()
	}
	suit, err := run(strategy.FV{P: params}, true)
	if err != nil {
		return Result{}, err
	}
	if len(suit.Faults) != 0 {
		return Result{}, fmt.Errorf("sched: placement run recorded %d faults", len(suit.Faults))
	}

	ch := metrics.NewChange(
		float64(base.Duration), float64(suit.Duration),
		float64(base.AvgPower), float64(suit.AvgPower),
	)
	return Result{
		Assignment: a,
		Change:     ch,
		Eff:        ch.Efficiency(),
		PerTask:    suit.PerCore,
		Exceptions: suit.Exceptions,
	}, nil
}

// Compare evaluates the oblivious spread against density packing and
// returns both results (spread first).
func Compare(c Config) (spread, packed Result, err error) {
	spread, err = Evaluate(c, Spread(c.Tasks, c.Clusters))
	if err != nil {
		return
	}
	packed, err = Evaluate(c, PackByDensity(c.Tasks, c.Clusters, c.CoresPerCluster))
	return
}
