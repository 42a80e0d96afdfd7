package strategy

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Retry is the hardened decide loop shared by the online controller and
// the serving control plane: every attempt runs under its own deadline, a
// failed attempt is retried a bounded number of times with an injected
// wait between attempts, and the surviving plan can be checked against
// the feasibility invariants before it is applied. The zero value decides
// once, with no deadline and no validation.
type Retry struct {
	// DecideTimeout bounds each Decide attempt via a derived context
	// deadline. Requires a non-nil parent context; zero means no
	// deadline.
	DecideTimeout time.Duration
	// MaxRetries is how many times a failed Decide is retried before the
	// decision is declared failed.
	MaxRetries int
	// Backoff is the wait between retry attempts. The wait itself is
	// performed by Sleep, which the binary injects (library code never
	// owns a timer); with a nil Sleep the backoff is skipped and retries
	// are immediate, which is also what deterministic tests want.
	Backoff time.Duration
	// Sleep waits the given duration or until ctx is done, returning
	// ctx's error if it fired first. Binaries pass a timer-backed
	// implementation; nil means no waiting between retries.
	Sleep func(ctx context.Context, d time.Duration) error
	// Validate checks the decided plan with Validate before it is
	// returned. Validation runs once, on the plan the attempts produced:
	// an invalid plan fails the decision without a retry.
	Validate bool
}

// Check rejects negative settings.
func (r Retry) Check() error {
	if r.MaxRetries < 0 || r.DecideTimeout < 0 || r.Backoff < 0 {
		return fmt.Errorf("negative retry settings: timeout %v, retries %d, backoff %v", r.DecideTimeout, r.MaxRetries, r.Backoff)
	}
	return nil
}

// Decide runs st.Decide up to 1+MaxRetries times, each attempt under its
// own DecideTimeout deadline, waiting Backoff (via Sleep) between
// attempts. It returns the plan, the number of failed attempts before the
// outcome, and the last error. Retrying stops early when ctx itself is
// done, when Sleep reports ctx's error, and on a configuration error (a
// DecideTimeout without a parent context), which no retry can change.
func (r Retry) Decide(ctx context.Context, st Strategy, inst Instance) (*Plan, int, error) {
	if r.DecideTimeout > 0 && ctx == nil {
		return nil, 0, errors.New("strategy: DecideTimeout requires a non-nil context")
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 && r.Backoff > 0 && r.Sleep != nil {
			if err := r.Sleep(ctx, r.Backoff); err != nil {
				return nil, attempt, lastErr
			}
		}
		plan, err := r.decideOnce(ctx, st, inst)
		if err == nil {
			if r.Validate {
				if verr := Validate(inst, plan); verr != nil {
					return nil, attempt, fmt.Errorf("invalid decision: %w", verr)
				}
			}
			return plan, attempt, nil
		}
		lastErr = err
		if attempt >= r.MaxRetries || (ctx != nil && ctx.Err() != nil) {
			// Out of attempts, or the caller's own deadline is gone and
			// retrying cannot succeed.
			return nil, attempt, lastErr
		}
	}
}

// decideOnce is one Decide attempt under its own deadline.
func (r Retry) decideOnce(ctx context.Context, st Strategy, inst Instance) (*Plan, error) {
	if r.DecideTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.DecideTimeout)
		defer cancel()
	}
	plan, _, err := st.Decide(ctx, inst)
	if err == nil && (plan == nil || plan.Placement == nil) {
		err = errors.New("strategy returned no plan")
	}
	return plan, err
}
