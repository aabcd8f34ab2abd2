package cpu

import (
	"errors"
	"fmt"
)

// Batch co-steps K independent machines over a shared event stream.
// The members are typically K parameter points of one sweep scenario
// built against the same immutable traces (internal/core's trace
// artifacts): the instruction streams are identical and only the
// per-domain voltage/margin/strategy state diverges. Interleaving the
// members by simulated time keeps the shared trace segment all of them
// are currently walking hot in cache instead of streaming the whole
// trace through once per machine.
//
// Each member's event sequence is exactly what its own Run would
// produce — machines never observe each other, so every Result is
// bit-identical to an unbatched run (asserted by the randomized
// batched-vs-unbatched differential test in batch_test.go).
type Batch struct {
	ms []*Machine
}

// NewBatch builds a batch over the given machines. Machines must not be
// shared between batches or stepped concurrently elsewhere; traces,
// being read-only to the simulator, may be shared freely.
func NewBatch(ms []*Machine) (*Batch, error) {
	if len(ms) == 0 {
		return nil, errors.New("cpu: empty batch")
	}
	for i, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("cpu: batch machine %d is nil", i)
		}
	}
	return &Batch{ms: ms}, nil
}

// Run executes every member to completion and returns their results in
// member order. On error the whole batch is abandoned (partial results
// would not be byte-stable across batch shapes).
func (b *Batch) Run() ([]Result, error) {
	for _, m := range b.ms {
		m.runInit()
	}
	for {
		// Step the laggard: the unfinished machine with the smallest
		// simulated clock (ties broken by member order, so the schedule —
		// though invisible in results — is itself deterministic).
		idx := -1
		for i, m := range b.ms {
			if m.runDone {
				continue
			}
			if idx < 0 || m.now < b.ms[idx].now {
				idx = i
			}
		}
		if idx < 0 {
			break
		}
		if err := b.ms[idx].runStep(); err != nil {
			return nil, fmt.Errorf("cpu: batch machine %d: %w", idx, err)
		}
	}
	res := make([]Result, len(b.ms))
	for i, m := range b.ms {
		res[i] = m.finishRun()
	}
	return res, nil
}
