// Package dist shards sweep execution across processes and hosts: the
// suitd daemon's dispatcher hands fingerprint-addressed work units to
// pull-based workers (cmd/suitworker) over HTTP, and digest-verified
// results flow back into the engine's content-addressed caches.
//
// Robustness is the design, not an afterthought. Every unit is leased,
// never given away: a worker that crashes, partitions or stalls simply
// stops heartbeating and the lease expires, after which the unit is
// reassigned deterministically. Delivery is at-least-once — and that is
// safe, because results are content-addressed and byte-identical by the
// PR 1 fingerprint contract: a duplicate delivery verifies against the
// recorded digest and dedups; two *different* results for one
// fingerprint is a conflict that is counted and rejected, never stored.
// Workers that keep failing leases are quarantined; a dispatcher whose
// remote tier keeps failing trips a circuit breaker; and in both cases
// execution degrades gracefully to the local engine, which is always
// capable of computing the identical bytes.
//
// The wire format carries registry names (chip letter, workload names)
// plus raw parameter values rather than model structs, and the worker
// re-derives the scenario fingerprint from what it reconstructed: any
// codec drift, version skew or corruption surfaces as a fingerprint
// mismatch and the unit is refused rather than mis-simulated.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"suit/internal/core"
	"suit/internal/strategy"
	"suit/internal/units"
	"suit/internal/workload"
)

// WorkUnit is one fingerprint-addressed scenario offered to workers.
// Fingerprint is the engine's cache key (the content address of the
// work); Seed is the engine-derived seed the run function receives, so
// a remote execution reproduces exactly what a local attempt would.
type WorkUnit struct {
	Fingerprint string       `json:"fingerprint"`
	Seed        uint64       `json:"seed"`
	Scenario    ScenarioWire `json:"scenario"`
}

// ScenarioWire is a core.Scenario flattened to registry names and raw
// values. Chip models and workload definitions never travel — both
// sides resolve them from their own registries, and the fingerprint
// check catches any skew between the two binaries.
type ScenarioWire struct {
	Chip         string      `json:"chip"`
	Bench        string      `json:"bench"`
	CoBenches    []string    `json:"co_benches,omitempty"`
	Kind         string      `json:"kind"`
	Cores        int         `json:"cores,omitempty"`
	SpendAging   bool        `json:"spend_aging"`
	Instructions uint64      `json:"instructions"`
	Seed         uint64      `json:"seed"`
	Params       *ParamsWire `json:"params,omitempty"`
	Timeline     bool        `json:"timeline,omitempty"`
	SampleEvery  float64     `json:"sample_every,omitempty"`
}

// ParamsWire carries strategy.Params as the raw float64 unit values —
// not the JSON-friendly microsecond forms the service API uses —
// because JSON round-trips float64 exactly while a µs conversion could
// perturb the last bit and break the fingerprint check.
type ParamsWire struct {
	Deadline       float64 `json:"deadline"`
	TimeSpan       float64 `json:"time_span"`
	MaxExceptions  int     `json:"max_exceptions"`
	DeadlineFactor float64 `json:"deadline_factor"`
}

// EncodeScenario flattens a scenario to its wire form, verifying the
// round trip: the encoded form is decoded back and must reproduce the
// identical fingerprint, so a scenario the codec cannot carry
// faithfully (an ad-hoc benchmark not in the registry, say) is refused
// here — the caller runs it locally — instead of mis-executing remotely.
func EncodeScenario(sc core.Scenario) (ScenarioWire, error) {
	letter, err := chipLetterFor(sc.Chip.Name)
	if err != nil {
		return ScenarioWire{}, err
	}
	w := ScenarioWire{
		Chip:         letter,
		Bench:        sc.Bench.Name,
		Kind:         string(sc.Kind),
		Cores:        sc.Cores,
		SpendAging:   sc.SpendAging,
		Instructions: sc.Instructions,
		Seed:         sc.Seed,
		Timeline:     sc.RecordTimeline,
		SampleEvery:  float64(sc.SampleEvery),
	}
	for _, cb := range sc.CoBenches {
		w.CoBenches = append(w.CoBenches, cb.Name)
	}
	if sc.Params != nil {
		w.Params = &ParamsWire{
			Deadline:       float64(sc.Params.Deadline),
			TimeSpan:       float64(sc.Params.TimeSpan),
			MaxExceptions:  sc.Params.MaxExceptions,
			DeadlineFactor: sc.Params.DeadlineFactor,
		}
	}
	back, err := w.Scenario()
	if err != nil {
		return ScenarioWire{}, fmt.Errorf("dist: scenario does not round-trip: %w", err)
	}
	if got, want := back.Fingerprint(), sc.Fingerprint(); got != want {
		return ScenarioWire{}, fmt.Errorf("dist: scenario does not round-trip: fingerprint %q != %q", got, want)
	}
	return w, nil
}

// Scenario reconstructs the core scenario from its wire form by
// resolving the local registries. Callers must verify the result's
// Fingerprint against the work unit's before running it.
func (w ScenarioWire) Scenario() (core.Scenario, error) {
	chip, err := core.ChipByName(w.Chip)
	if err != nil {
		return core.Scenario{}, err
	}
	benches, err := core.BenchesByName(append([]string{w.Bench}, w.CoBenches...))
	if err != nil {
		return core.Scenario{}, err
	}
	sc := core.Scenario{
		Chip:           chip,
		Bench:          benches[0],
		Kind:           core.StrategyKind(w.Kind),
		Cores:          w.Cores,
		SpendAging:     w.SpendAging,
		Instructions:   w.Instructions,
		Seed:           w.Seed,
		RecordTimeline: w.Timeline,
		SampleEvery:    units.Second(w.SampleEvery),
	}
	if len(benches) > 1 {
		sc.CoBenches = append([]workload.Benchmark(nil), benches[1:]...)
	}
	if w.Params != nil {
		sc.Params = &strategy.Params{
			Deadline:       units.Second(w.Params.Deadline),
			TimeSpan:       units.Second(w.Params.TimeSpan),
			MaxExceptions:  w.Params.MaxExceptions,
			DeadlineFactor: w.Params.DeadlineFactor,
		}
	}
	return sc, nil
}

// chipLetterFor maps a chip model name back to its registry letter.
func chipLetterFor(name string) (string, error) {
	for _, letter := range core.ChipLetters() {
		chip, err := core.ChipByName(letter)
		if err != nil {
			return "", err
		}
		if chip.Name == name {
			return letter, nil
		}
	}
	return "", fmt.Errorf("dist: chip %q is not in the registry", name)
}

// ClaimRequest asks the dispatcher for one work unit. Revision is the
// worker build's engine.ResultsRevision; the dispatcher refuses a
// claim whose revision differs from its own, so a worker with other
// result semantics never computes a unit. A worker built before the
// field existed sends none, which decodes as 0 and is refused too.
type ClaimRequest struct {
	WorkerID string `json:"worker_id"`
	Revision int    `json:"revision"`
}

// Grant is a successful claim: a lease on one work unit. The worker
// must heartbeat within TTLMillis or the lease expires and the unit is
// reassigned.
type Grant struct {
	LeaseID   string   `json:"lease_id"`
	TTLMillis int64    `json:"ttl_ms"`
	Unit      WorkUnit `json:"unit"`
}

// ResultMsg is the worker's report for a leased unit: either an outcome
// with its engine.ResultDigest, which catches torn and garbled bodies and
// lets an at-least-once duplicate delivery verify instead of conflict,
// or an error (fingerprint mismatch, failed simulation) that releases
// the lease for reassignment without waiting for expiry.
type ResultMsg struct {
	Fingerprint string          `json:"fingerprint"`
	Outcome     json.RawMessage `json:"outcome,omitempty"`
	Digest      string          `json:"digest,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// ResultAck is the dispatcher's answer to a result post.
type ResultAck struct {
	Status string `json:"status"` // accepted | duplicate | retrying
}

// shortKey abbreviates a fingerprint for lease IDs and error text.
func shortKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:4])
}
