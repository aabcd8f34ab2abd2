package main

import (
	"fmt"
)

// result is what one run of one workload measured and checked.
type result struct {
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Digest is the sha256 of the canonical outputs of the run's fixed
	// first part; equal seeds give equal digests on one commit.
	Digest string `json:"output_digest"`
	// Metrics holds end-to-end values, Layers per-layer ones (traced
	// run only), by the names BENCHMARK.json gives them.
	Metrics map[string]float64 `json:"metrics"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	// Notes are report-only lines: round counts, tails with their
	// percentile and sample count.
	Notes []string   `json:"notes,omitempty"`
	Self  []spanTime `json:"self_times,omitempty"`
	Spans []span     `json:"spans,omitempty"`
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]float64{}, Layers: map[string]float64{}}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// tailNote notes the tail of a timing series, with its percentile and
// sample count, and returns the tail value (0 with too few samples). An
// empty series, a path the workload does not take, is not noted.
func (r *result) tailNote(name string, xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pct, v, ok := tail(xs)
	if !ok {
		r.note("%s: %d samples, too few for a tail", name, len(xs))
		return 0
	}
	r.note("%s: p50 %.4g, p%g %.4g (%d samples)", name, median(xs), pct, v, len(xs))
	return v
}
