#!/usr/bin/env python3
"""Pick the re-scale factor from data and compare against the oracle sweep.

The adaptive strategy halves the training sample, trains once per
candidate u on the learning half, scores every truncation on the
validation half, and keeps the best pair. run_comparison's
"rboosting_adaptive" row then retrains the chosen u on the full sample and
scores it on a noiseless test set next to the "rboosting" row, whose u is
the oracle's pick on that test set; truncation counts are test-selected
for both, so the comparison isolates the cost of choosing u from data.
"""

from rboost import SyntheticSpec, TreeLearnerSpec, run_comparison, u_grid
from rboost.bench import selected_u_stats
from rboost.io import format_aligned

spec = SyntheticSpec(target_id=4, noise_sigma=0.5, train_m=500, test_m=500, trials=3, seed_base=1)
methods = ("rboosting_adaptive", "rboosting")
report = run_comparison(spec, methods, k_max=100, grid=u_grid(10, 1, 1e6), learner_spec=TreeLearnerSpec(4))

rows = []
for name, summary in report.algorithms.items():
    mean_u, std_u = selected_u_stats(summary)
    rows.append([name, f"{summary.rmse_mean:.4f}", f"{summary.rmse_std:.4f}", f"{mean_u:.0f}", f"{std_u:.0f}"])
print(format_aligned(["protocol", "mean_rmse", "std_rmse", "mean_u", "std_u"], rows))

adaptive = report.algorithms["rboosting_adaptive"]
print("\nper-trial selections (k_valid is the validation-half iteration pick):")
for t, sel in enumerate(adaptive.selected):
    print(f"  trial {t}: u={sel['u']:<4d} k={sel['k']:<4d} k_valid={sel['k_valid']}")
