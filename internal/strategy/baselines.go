package strategy

import (
	"context"
	"fmt"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// kspPaths is the number of candidate paths per request of the k-SP
// baseline: 3, the paper's evaluation setting.
const kspPaths = 3

func init() {
	register("sp", "SP [38]: per-path placement on the origin's shortest-path tree, served along those paths",
		func(Options) Strategy { return &SP{} })
	register("ksp", "3-SP [3]: joint placement over each request's 3 shortest candidate paths from the origin",
		func(Options) Strategy { return &KSP{} })
	register("rnr", "greedy placement + capacity-oblivious route-to-nearest-replica serving",
		func(Options) Strategy { return &RNR{} })
}

// SP is the paper's SP [38] baseline: per-path placement on the single
// pinned origin's shortest-path tree, each request served along its tree
// path.
type SP struct{}

// Name implements Strategy.
func (*SP) Name() string { return "sp" }

// Decide implements Strategy.
func (*SP) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	origin, err := soleOrigin(ctx, "sp", inst.Spec)
	if err != nil {
		return nil, Stats{}, err
	}
	pl, paths, err := placement.SP38(inst.Spec, origin, placement.PerPathAuto, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	return finishPlan(inst.Spec, &Plan{Placement: pl, Paths: paths}), Stats{Iterations: 1, Method: "sp38"}, nil
}

// KSP is the k-SP [3] baseline (Ioannidis-Yeh, arXiv 1708.05999): joint
// placement over each request's kspPaths shortest candidate paths from the
// single pinned origin, each request served along its chosen candidate.
type KSP struct{}

// Name implements Strategy.
func (*KSP) Name() string { return "ksp" }

// Decide implements Strategy.
func (*KSP) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	origin, err := soleOrigin(ctx, "ksp", inst.Spec)
	if err != nil {
		return nil, Stats{}, err
	}
	res, err := placement.KSP3(inst.Spec, origin, kspPaths, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	return finishPlan(inst.Spec, &Plan{Placement: res.Placement, Paths: res.Chosen}), Stats{Iterations: 1, Method: "ksp3"}, nil
}

// RNR places greedily (the Section 5 greedy) and serves every request from
// its nearest replica, capacity-obliviously.
type RNR struct{}

// Name implements Strategy.
func (*RNR) Name() string { return "rnr" }

// Decide implements Strategy.
func (*RNR) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	if err := pollCtx(ctx, "rnr"); err != nil {
		return nil, Stats{}, err
	}
	dist := inst.Distances()
	res, err := placement.Greedy(inst.Spec, dist)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := pollCtx(ctx, "rnr serving"); err != nil {
		return nil, Stats{}, err
	}
	paths, err := placement.GlobalRNRServing(inst.Spec, res.Placement, dist)
	if err != nil {
		return nil, Stats{}, err
	}
	return finishPlan(inst.Spec, &Plan{Placement: res.Placement, Paths: paths}), Stats{Iterations: 1, Method: "greedy+rnr"}, nil
}

// soleOrigin polls ctx and returns the spec's single pinned origin, the
// designated server of the origin-tree baselines.
func soleOrigin(ctx context.Context, name string, spec *placement.Spec) (graph.NodeID, error) {
	if err := pollCtx(ctx, name); err != nil {
		return 0, err
	}
	if len(spec.Pinned) != 1 {
		return 0, fmt.Errorf("strategy: %s needs exactly one pinned origin, have %d", name, len(spec.Pinned))
	}
	return spec.Pinned[0], nil
}

// Static decides once, on the first instance it sees, and replays that
// plan on every later Decide: the churn-free baseline of the online
// experiments. It is not registered — it wraps another strategy — and a
// replayed plan is only as valid as the demand it was decided on.
type Static struct {
	Inner Strategy

	plan *Plan
}

// Name implements Strategy.
func (s *Static) Name() string { return "static " + s.Inner.Name() }

// Decide implements Strategy.
func (s *Static) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	if s.plan != nil {
		return s.plan, Stats{}, nil
	}
	plan, stats, err := s.Inner.Decide(ctx, inst)
	if err != nil {
		return nil, stats, err
	}
	s.plan = plan
	return plan, stats, nil
}
