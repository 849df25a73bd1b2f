#!/usr/bin/env python3
"""Sweep the re-scale factor u and watch the test-error valley.

The shrinkage schedule alpha_k = 2/(k+u) interpolates between aggressive
re-scaling (u = 1) and plain boosting (u -> infinity). On noisy targets
an interior u usually wins, which is the whole point of selecting it.

This is a desk-scale sweep (a few trials, small iteration budget) so it
finishes in well under a minute; bump trials/k_max for smoother curves.
"""

from rboost import SyntheticSpec, TreeLearnerSpec, run_comparison, u_grid
from rboost.io import format_aligned

spec = SyntheticSpec(
    target_id=4,      # x1*sin(x1^2) - x2*sin(x2^2) on [-2, 2]^2
    noise_sigma=0.5,
    train_m=500,
    test_m=500,
    trials=3,
    seed_base=0,
)

grid = u_grid(10, 1, 1e6)
# The oracle comparison of the re-scaled booster alone keeps its per-u test RMSE as the u-curve.
curve = run_comparison(spec, ("rboosting",), k_max=100, grid=grid, learner_spec=TreeLearnerSpec(4)).curve

rows = [[p.u, f"{p.mean_rmse:.4f}", f"{p.std_rmse:.4f}"] for p in curve]
print(format_aligned(["u", "mean_rmse", "std_rmse"], rows))

best = min(curve, key=lambda p: p.mean_rmse)
endpoint = curve[-1]
print(
    f"\nbest u = {best.u} at RMSE {best.mean_rmse:.4f}; "
    f"u = {endpoint.u} (essentially unshrunk) sits at {endpoint.mean_rmse:.4f}"
)
print("The same sweep is available as: rboost ucurve --target 4 --sigma 0.5 --out DIR")
