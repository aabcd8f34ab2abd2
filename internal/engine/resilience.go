package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// PanicError wraps a panic recovered from a job's run function: the
// job fails, and the panic value plus stack travel with the failure
// instead of crashing the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", e.Value, e.Stack)
}

// RetryDelay is the pause before retry attempt (attempt counts from 0:
// the delay between the first failure and the second attempt). The
// delay doubles per attempt up to 32× base and carries a deterministic
// jitter derived from the job fingerprint — never from the global rand
// source — so two processes retrying the same fingerprints do not retry
// in lockstep, yet a given (fingerprint, attempt) always waits the same
// time. A base <= 0 retries immediately. The engine itself never
// retries; internal/dist paces lease reassignment and result posts
// with it.
func RetryDelay(base time.Duration, key string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	d := base << uint(shift)
	jitter := time.Duration(DeriveSeed(uint64(attempt)+1, key) % uint64(d/2+1))
	return d + jitter
}

// seedKeyer is a spec type whose seed derives from a key of its own
// instead of its fingerprint: core.Scenario's recording key, which
// several fingerprints share.
type seedKeyer interface{ SeedKey() string }

// executeJob runs one job once. Its seed derives from the spec's
// SeedKey when the spec type has one, else from its fingerprint. When a
// remote hook is installed the job is offered there first; a handled
// job returns without local work, a declined one (no live workers,
// tripped dispatcher, exhausted remote attempts) runs locally — the
// graceful-degradation contract that keeps a daemon with zero workers
// exactly as capable as before. A local run is panic-contained: a
// panic becomes a *PanicError.
func (e *Engine[S, R]) executeJob(ctx context.Context, j *job[S]) (r R, err error) {
	key := j.key
	if sk, ok := any(j.spec).(seedKeyer); ok {
		key = sk.SeedKey()
	}
	seed := DeriveSeed(e.opts.BaseSeed, key)
	if e.remote != nil {
		if r, handled, err := e.remote(ctx, j.spec, j.key, seed); handled {
			if err == nil {
				e.mu.Lock()
				e.stats.Remote++
				e.mu.Unlock()
			}
			return r, err
		}
	}
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return e.run(ctx, j.spec, seed)
}
