package service

import (
	"fmt"
	"sort"

	"suit/internal/core"
	"suit/internal/metrics"
	"suit/internal/strategy"
	"suit/internal/units"
)

// Result is the deliverable of a completed job. Every field is a pure
// function of the normalized spec — no timestamps, no throughput, no
// hostnames — so the JSON encoding is byte-identical across runs,
// restarts and resumes. That is why no result is stored: after a
// restart, aggregate rebuilds the same bytes from the points the
// scenario cache replays, and the drain/resume contract is testable
// with cmp.
type Result struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// GridPoints and Workloads describe the evaluated matrix.
	GridPoints int      `json:"grid_points"`
	Workloads  []string `json:"workloads"`
	// Points is the efficiency ranking, truncated to Spec.Top.
	Points []RankedPoint `json:"points"`
	// BestToWorstSpread is the efficiency spread across the full
	// ranking in percentage points (§6.4's "wide range" observation).
	BestToWorstSpread float64 `json:"best_to_worst_spread_pct"`
}

// RankedPoint is one parameter setting with its mean efficiency over
// the workload mix.
type RankedPoint struct {
	ParamSpec
	Efficiency float64 `json:"efficiency"`
}

// aggregate folds the engine's outcomes back into the ranked result,
// mirroring suitsweep's per-point mean-efficiency ranking: outcomes
// arrive in (grid × benches) order, ties keep grid order.
func aggregate(id string, spec Spec, grid []strategy.Params, outs []core.Outcome) (*Result, error) {
	nb := len(spec.Benches)
	if len(outs) != len(grid)*nb {
		return nil, fmt.Errorf("aggregate: %d outcomes for %d grid points × %d workloads", len(outs), len(grid), nb)
	}
	type point struct {
		i   int
		eff float64
	}
	points := make([]point, len(grid))
	for i := range grid {
		effs := make([]float64, nb)
		for j := 0; j < nb; j++ {
			effs[j] = outs[i*nb+j].Efficiency
		}
		mean, _ := metrics.Mean(effs)
		points[i] = point{i: i, eff: mean}
	}
	sort.SliceStable(points, func(a, b int) bool { return points[a].eff > points[b].eff })

	res := &Result{
		ID: id, Spec: spec,
		GridPoints: len(grid),
		Workloads:  spec.Benches,
	}
	if len(points) > 0 {
		res.BestToWorstSpread = (points[0].eff - points[len(points)-1].eff) * 100
	}
	n := spec.Top
	if n > len(points) {
		n = len(points)
	}
	for _, p := range points[:n] {
		g := grid[p.i]
		res.Points = append(res.Points, RankedPoint{
			ParamSpec: ParamSpec{
				DeadlineUS:     float64(g.Deadline) / float64(units.Microseconds(1)),
				TimeSpanUS:     float64(g.TimeSpan) / float64(units.Microseconds(1)),
				MaxExceptions:  g.MaxExceptions,
				DeadlineFactor: g.DeadlineFactor,
			},
			Efficiency: p.eff,
		})
	}
	return res, nil
}
