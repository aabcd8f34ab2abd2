package service

import (
	"sync"
)

// State is a job's lifecycle phase. A job only moves forward:
// queued → running → one of done/failed/canceled.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled" // drained mid-run; resubmit to resume
)

// States lists every job state in lifecycle order — the /metrics
// per-state gauges iterate this slice, never a map.
var States = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// Event is one progress notification on a job's event stream.
type Event struct {
	State State `json:"state"`
	// Done/Total track completed scenario points while running.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error carries the failure reason on StateFailed/StateCanceled.
	Error string `json:"error,omitempty"`
}

// Job is one content-addressed unit of work in the registry. The ID is
// the spec fingerprint digest, so the registry key doubles as the
// single-flight key: a second submission of the same spec finds this
// job instead of creating another, unless this job failed.
type Job struct {
	ID   string
	Spec Spec

	mu     sync.Mutex
	state  State
	done   int
	total  int
	err    string
	result *Result
	subs   map[chan Event]bool
	closed chan struct{} // closed on entering a terminal state
}

func newJob(id string, spec Spec, total int) *Job {
	return &Job{
		ID: id, Spec: spec, state: StateQueued, total: total,
		subs: make(map[chan Event]bool), closed: make(chan struct{}),
	}
}

// snapshot returns the job's current event view.
func (j *Job) snapshot() Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Event{State: j.state, Done: j.done, Total: j.total, Error: j.err}
}

// State returns the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Subscribe registers an event listener. The current snapshot is
// delivered first so late subscribers see the state they joined at;
// the cancel func unregisters and the channel is closed after the
// terminal event. Slow subscribers lose intermediate progress events
// (newest-wins, never blocking the executor) but always receive the
// terminal one.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	ch <- Event{State: j.state, Done: j.done, Total: j.total, Error: j.err}
	terminal := j.isTerminalLocked()
	if terminal {
		close(ch)
	} else {
		j.subs[ch] = true
	}
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		if j.subs[ch] {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
	if terminal {
		return ch, func() {}
	}
	return ch, cancel
}

func (j *Job) isTerminalLocked() bool {
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return true
	default:
		return false
	}
}

// publishLocked fans the current snapshot out to subscribers; terminal
// events close the stream. Callers hold j.mu.
func (j *Job) publishLocked() {
	ev := Event{State: j.state, Done: j.done, Total: j.total, Error: j.err}
	terminal := j.isTerminalLocked()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			// Full buffer: drop the oldest queued event to keep the
			// newest; progress is monotonic so intermediate drops are
			// harmless and the executor never blocks on a slow reader.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
		if terminal {
			delete(j.subs, ch)
			close(ch)
		}
	}
	if terminal {
		close(j.closed)
	}
}

// setRunning transitions queued → running.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.publishLocked()
}

// advance counts one more resolved scenario point.
func (j *Job) advance() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.isTerminalLocked() {
		return
	}
	j.done++
	j.publishLocked()
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, result *Result, errText string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.isTerminalLocked() {
		return
	}
	j.state = state
	j.result = result
	j.err = errText
	if state == StateDone {
		j.done = j.total
	}
	j.publishLocked()
}
