package strategy

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// failingStrategy fails every Decide, recording the context each attempt
// received.
type failingStrategy struct {
	ctxs []context.Context
}

func (f *failingStrategy) Name() string { return "failing" }

func (f *failingStrategy) Decide(ctx context.Context, _ Instance) (*Plan, Stats, error) {
	f.ctxs = append(f.ctxs, ctx)
	return nil, Stats{}, fmt.Errorf("attempt %d failed", len(f.ctxs))
}

// TestRetryBackoff pins the loop's retry schedule: a failed decision
// sleeps Backoff between attempts exactly MaxRetries times, a Sleep that
// reports ctx's error ends the loop with the last Decide error and no
// further attempt, and every attempt runs under its own DecideTimeout
// deadline derived from the live parent.
func TestRetryBackoff(t *testing.T) {
	inst := Instance{}
	t.Run("sleeps between attempts", func(t *testing.T) {
		var waits []time.Duration
		r := Retry{MaxRetries: 3, Backoff: 7 * time.Millisecond, Sleep: func(_ context.Context, d time.Duration) error {
			waits = append(waits, d)
			return nil
		}}
		st := &failingStrategy{}
		_, retries, err := r.Decide(context.Background(), st, inst)
		if err == nil || retries != 3 || len(st.ctxs) != 4 {
			t.Fatalf("retries %d, attempts %d, err %v; want 3 retries over 4 attempts", retries, len(st.ctxs), err)
		}
		if len(waits) != 3 {
			t.Fatalf("Sleep called %d times, want 3", len(waits))
		}
		for _, d := range waits {
			if d != r.Backoff {
				t.Fatalf("Sleep(%v), want the backoff %v", d, r.Backoff)
			}
		}
	})
	t.Run("sleep error stops retrying", func(t *testing.T) {
		r := Retry{MaxRetries: 5, Backoff: time.Millisecond, Sleep: func(context.Context, time.Duration) error {
			return context.Canceled
		}}
		st := &failingStrategy{}
		_, retries, err := r.Decide(context.Background(), st, inst)
		if len(st.ctxs) != 1 || retries != 1 {
			t.Fatalf("attempts %d, retries %d; want 1 attempt, reported as 1 failure", len(st.ctxs), retries)
		}
		if err == nil || err.Error() != "attempt 1 failed" {
			t.Fatalf("err %v, want the last Decide error", err)
		}
	})
	t.Run("per-attempt deadline", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		defer cancel()
		r := Retry{MaxRetries: 2, DecideTimeout: time.Hour}
		st := &failingStrategy{}
		if _, _, err := r.Decide(parent, st, inst); err == nil {
			t.Fatal("failing strategy succeeded")
		}
		if len(st.ctxs) != 3 {
			t.Fatalf("%d attempts, want 3", len(st.ctxs))
		}
		if parent.Err() != nil {
			t.Fatal("the loop canceled its parent")
		}
		for k, ctx := range st.ctxs {
			if _, ok := ctx.Deadline(); !ok {
				t.Fatalf("attempt %d ran without a deadline", k)
			}
			// Each attempt's context is its own: canceled when the
			// attempt returned, while the parent lives on.
			if !errors.Is(ctx.Err(), context.Canceled) {
				t.Fatalf("attempt %d context not released: %v", k, ctx.Err())
			}
			if k > 0 && ctx == st.ctxs[k-1] {
				t.Fatalf("attempts %d and %d shared a context", k-1, k)
			}
		}
	})
}
