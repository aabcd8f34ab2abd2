// Package service wraps internal/engine in a sweep-as-a-service layer:
// the suitd daemon's HTTP/JSON API submits sweep and sim specs, every
// spec is content-addressed by its canonical fingerprint (PR 1's
// fingerprint→seed contract), and identical submissions — concurrent or
// repeated — coalesce onto one engine execution via the job registry
// and the engine's single-flight dedup. The engine's scenario cache is
// the one record of finished work: a result is rebuilt from its points,
// so a restarted daemon replays a resubmitted spec's finished points
// from the cache, computes only the rest, and returns byte-identical
// result bytes. Progress streams to subscribers, and a bounded
// admission queue applies backpressure.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"suit/internal/core"
	"suit/internal/engine"
	"suit/internal/strategy"
	"suit/internal/units"
)

// Spec is one submitted unit of work: a parameter sweep (kind "sweep")
// or a single-setting evaluation (kind "sim") over a workload mix.
// The zero value of every field means "use the default", so a minimal
// submission body is `{}` — the full Table 7 sweep on chip C.
type Spec struct {
	// Kind is "sweep" (rank Params — or the full Table 7 grid when
	// Params is empty — by mean efficiency) or "sim" (evaluate the
	// chip's paper-default parameters). Default "sweep".
	Kind string `json:"kind,omitempty"`
	// Chip is the CPU model letter: A, B or C. Default C.
	Chip string `json:"chip,omitempty"`
	// OffsetMV selects the undervolt: 70 or 97 mV. Default 97.
	OffsetMV int `json:"offset_mv,omitempty"`
	// Instructions per scenario run. Default 2e6 (the smoke size);
	// minimum 1e4.
	Instructions uint64 `json:"instructions,omitempty"`
	// Seed is the base seed for deterministic per-point seed
	// derivation, exactly like suitsweep -seed. Default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Top bounds the ranked points kept in the result. Default 10.
	Top int `json:"top,omitempty"`
	// Benches names registry workloads; empty means the default sweep
	// mix (sparse, medium, dense, bursty).
	Benches []string `json:"benches,omitempty"`
	// Params is the explicit grid to rank. Empty means the chip's full
	// Table 7 search region for "sweep", or the chip's paper-default
	// setting for "sim".
	Params []ParamSpec `json:"params,omitempty"`
}

// ParamSpec is one strategy parameter setting in JSON-friendly units.
type ParamSpec struct {
	DeadlineUS     float64 `json:"p_dl_us"`
	TimeSpanUS     float64 `json:"p_ts_us"`
	MaxExceptions  int     `json:"p_ec"`
	DeadlineFactor float64 `json:"p_df"`
}

func (p ParamSpec) params() strategy.Params {
	return strategy.Params{
		Deadline:       units.Microseconds(p.DeadlineUS),
		TimeSpan:       units.Microseconds(p.TimeSpanUS),
		MaxExceptions:  p.MaxExceptions,
		DeadlineFactor: p.DeadlineFactor,
	}
}

// Spec kinds.
const (
	KindSweep = "sweep"
	KindSim   = "sim"
)

// Normalize fills defaults and validates, returning the canonical form
// whose Fingerprint identifies the work. Two submissions that normalize
// equal are the same job.
func (s Spec) Normalize() (Spec, error) {
	if s.Kind == "" {
		s.Kind = KindSweep
	}
	if s.Kind != KindSweep && s.Kind != KindSim {
		return s, fmt.Errorf("bad kind %q: want %q or %q", s.Kind, KindSweep, KindSim)
	}
	if s.Chip == "" {
		s.Chip = "C"
	}
	chip, err := core.ChipByName(s.Chip)
	if err != nil {
		return s, err
	}
	s.Chip = strings.ToUpper(s.Chip)
	switch s.OffsetMV {
	case 0:
		s.OffsetMV = 97
	case 70, 97:
	default:
		return s, fmt.Errorf("bad offset_mv %d: the guardband model covers 70 and 97", s.OffsetMV)
	}
	if s.Instructions == 0 {
		s.Instructions = 2_000_000
	}
	if s.Instructions < 10_000 {
		return s, fmt.Errorf("bad instructions %d: need at least 1e4 for a meaningful run", s.Instructions)
	}
	if s.Seed == 0 {
		s.Seed = 1 // suitsweep's default, so served and direct sweeps align
	}
	if s.Top == 0 {
		s.Top = 10
	}
	if s.Top < 1 {
		return s, fmt.Errorf("bad top %d: need at least one ranked setting", s.Top)
	}
	if len(s.Benches) == 0 {
		s.Benches = append([]string(nil), core.SweepBenchNames...)
	}
	if _, err := core.BenchesByName(s.Benches); err != nil {
		return s, err
	}
	for i, p := range s.Params {
		if p.DeadlineUS <= 0 || p.TimeSpanUS <= 0 || p.MaxExceptions < 1 || p.DeadlineFactor <= 0 {
			return s, fmt.Errorf("bad params[%d]: all of p_dl_us, p_ts_us, p_df must be positive and p_ec >= 1", i)
		}
	}
	if s.Kind == KindSim && len(s.Params) == 0 {
		// The paper-default setting for this chip, spelled out so the
		// fingerprint does not depend on ParamsFor's implementation.
		d := core.ParamsFor(chip)
		s.Params = []ParamSpec{{
			DeadlineUS:     float64(d.Deadline) / float64(units.Microseconds(1)),
			TimeSpanUS:     float64(d.TimeSpan) / float64(units.Microseconds(1)),
			MaxExceptions:  d.MaxExceptions,
			DeadlineFactor: d.DeadlineFactor,
		}}
	}
	return s, nil
}

// Fingerprint is the canonical description of a normalized spec — the
// content address of the work. Every field that influences the result
// appears; an empty Params means "the chip's full Table 7 grid", which
// is stable across submissions by construction. The version prefix is
// engine.ResultsRevision, the simulator's result semantics, so a job ID
// of one revision never answers a submission of another.
func (s Spec) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "suitd/v%d|kind=%s|chip=%s|offset=%d|instr=%d|seed=%d|top=%d|benches=%s",
		engine.ResultsRevision, s.Kind, s.Chip, s.OffsetMV, s.Instructions, s.Seed, s.Top, strings.Join(s.Benches, ","))
	if len(s.Params) == 0 {
		b.WriteString("|grid=table7")
	}
	for _, p := range s.Params {
		fmt.Fprintf(&b, "|params=%g/%g/%d/%g", p.DeadlineUS, p.TimeSpanUS, p.MaxExceptions, p.DeadlineFactor)
	}
	return b.String()
}

// ID is the job identifier derived from the fingerprint: 32 hex
// characters of its SHA-256, the same digest family as the engine's
// cache filenames. POSTing the same spec always yields the same ID.
func (s Spec) ID() string {
	sum := sha256.Sum256([]byte(s.Fingerprint()))
	return hex.EncodeToString(sum[:16])
}

// grid returns the parameter settings a normalized spec ranks.
func (s Spec) grid() []strategy.Params {
	if len(s.Params) > 0 {
		g := make([]strategy.Params, len(s.Params))
		for i, p := range s.Params {
			g[i] = p.params()
		}
		return g
	}
	chip, err := core.ChipByName(s.Chip)
	if err != nil {
		return nil // unreachable on a normalized spec
	}
	return core.SweepGrid(chip)
}

// Scenarios expands a normalized spec into the engine's job list: one
// scenario per (grid point, workload), each carrying an explicit seed
// derived exactly like the engine would under BaseSeed = Spec.Seed —
// DeriveSeed over the zero-seed scenario fingerprint — so a served
// sweep is point-for-point identical to `suitsweep -seed N`.
func (s Spec) Scenarios() ([]core.Scenario, []strategy.Params, error) {
	chip, err := core.ChipByName(s.Chip)
	if err != nil {
		return nil, nil, err
	}
	benches, err := core.BenchesByName(s.Benches)
	if err != nil {
		return nil, nil, err
	}
	grid := s.grid()
	scs := make([]core.Scenario, 0, len(grid)*len(benches))
	for i := range grid {
		for _, b := range benches {
			sc := core.Scenario{
				Chip: chip, Bench: b, Kind: core.KindFV,
				SpendAging:   s.OffsetMV == 97,
				Instructions: s.Instructions,
				Params:       &grid[i],
			}
			// The explicit seed makes the shared service engine
			// (BaseSeed 0) reproduce what a dedicated engine with
			// BaseSeed = s.Seed would derive for this scenario.
			sc.Seed = engine.DeriveSeed(s.Seed, sc.Fingerprint())
			scs = append(scs, sc)
		}
	}
	return scs, grid, nil
}
