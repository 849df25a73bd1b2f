"""Choosing the re-scale factor u and the iteration count from data.

The adaptive strategy splits the training sample in half, trains the
re-scaled booster on the first half once per candidate u, scores every
truncation on the second half, and keeps the (u, k) pair with the lowest
validation risk. Retraining on the full sample with that pair is optional
but on by default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .boosters import train
from .core import Dataset, Ensemble, TrainConfig, clip


def u_grid(count: int, lo: float = 1.0, hi: float = 1e6) -> list:
    """Integer grid of count log-spaced values in [lo, hi], deduplicated.

    Each raw value 10**(log10(lo) + i*(log10(hi)-log10(lo))/(count-1)) is
    rounded half-up to the nearest integer and floored at 1; duplicates
    (which rounding produces at the low end of tight grids) are dropped
    preserving order.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got lo={lo}, hi={hi}")
    exponents = np.linspace(np.log10(lo), np.log10(hi), count)
    grid = []
    for e in exponents:
        v = max(1, int(np.floor(10.0**e + 0.5)))
        if not grid or grid[-1] != v:
            grid.append(v)
    return grid


def split_learn_validate(data: Dataset, shuffle_seed: Optional[int] = None):
    """Split into a learning front half (floor(m/2) rows) and a validation rest.

    With shuffle_seed set, rows are permuted by a seeded PCG64 generator
    first; otherwise file order is kept (callers whose rows are already
    i.i.d. can skip the shuffle).
    """
    if data.m < 2:
        raise ValueError(f"need m >= 2 rows to split, got {data.m}")
    idx = np.arange(data.m)
    if shuffle_seed is not None:
        idx = np.random.default_rng(shuffle_seed).permutation(data.m)
    half = data.m // 2
    return data.subset(idx[:half]), data.subset(idx[half:])


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the adaptive sweep.

    per_u_curve has one (u, best_k, best_validation_risk) triple per grid
    value; validation_risk is the minimum of those risks (MSE on the
    validation half). final_model is retrained on the full sample when
    requested, else the truncated half-sample model.
    """

    chosen_u: int
    chosen_k: int
    validation_risk: float
    final_model: Ensemble
    per_u_curve: tuple


def _staged_mse(model: Ensemble, data: Dataset, clip_bound: Optional[float] = None) -> np.ndarray:
    """Risk of every truncation on data: entry k-1 is the MSE of f_k, clipped when a bound is given."""
    preds = model.staged_predict(data.features)
    if clip_bound is not None:
        preds = clip(preds, clip_bound)
    err = preds - data.targets
    return np.mean(err * err, axis=1)


def _best_truncation(model: Ensemble, data: Dataset, clip_bound: Optional[float] = None, score=lambda mse: mse):
    """(k, score) of the truncation whose MSE on data scores lowest; ties take the smallest k.

    score maps the MSE curve elementwise. An empty model is the zero
    predictor: k = 0, scored on mean(y^2).
    """
    if len(model) == 0:
        y = data.targets
        return 0, float(score(np.mean(y * y)))
    curve = score(_staged_mse(model, data, clip_bound))
    k = int(np.argmin(curve)) + 1
    return k, float(curve[k - 1])


def adaptive_select(
    data: Dataset,
    grid: Sequence[int],
    k_max: int,
    config: TrainConfig,
    retrain_on_full: bool = True,
    shuffle_seed: Optional[int] = None,
) -> SelectionResult:
    """Pick (u, k) by validation risk over the grid, optionally retrain on all rows.

    config supplies the learner spec; its algorithm, u and iteration
    budget are overridden per grid point. Ties break toward smaller u, then
    smaller k. When the empty model (k = 0) wins, final_model is empty too.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("u grid is empty")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    learn, validate = split_learn_validate(data, shuffle_seed)

    curve = []
    best = None  # (risk, u, k, model)
    for u in grid:
        model, _ = train(learn, replace(config, algorithm="rboosting", u=int(u), max_iterations=k_max))
        k_u, risk_u = _best_truncation(model, validate)
        curve.append((int(u), k_u, risk_u))
        if best is None or (risk_u, u, k_u) < (best[0], best[1], best[2]):
            best = (risk_u, int(u), k_u, model)

    risk_star, u_star, k_star, half_model = best
    if retrain_on_full and k_star > 0:
        final_model, _ = train(data, replace(config, algorithm="rboosting", u=u_star, max_iterations=k_star))
    else:
        final_model = half_model.truncate(k_star)
    return SelectionResult(u_star, k_star, risk_star, final_model, tuple(curve))


def select_k_by_holdout(model: Ensemble, holdout: Dataset, clip_bound: Optional[float] = None):
    """Truncation count minimizing holdout RMSE, with the RMSE; ties take the smallest k.

    With clip_bound set, the RMSE is that of the clipped predictions. The
    argmin runs over the RMSEs, not the MSEs: rounding the square root can
    merge neighbouring MSEs, and the smaller k then wins. An empty model
    gives k = 0 and the RMSE of the zero predictor.
    """
    return _best_truncation(model, holdout, clip_bound, np.sqrt)


def select_k_by_validation(data: Dataset, config: TrainConfig, k_max: int, shuffle_seed: Optional[int] = None):
    """Half-split analogue of the adaptive sweep for algorithms without u.

    Trains config.algorithm on the learning half for k_max rounds and
    returns the truncation with the lowest validation risk, (0, mean(y^2))
    for an empty model; used by the real-data protocol for the plain and
    data-driven variants.
    """
    learn, validate = split_learn_validate(data, shuffle_seed)
    model, _ = train(learn, replace(config, max_iterations=k_max))
    return _best_truncation(model, validate)
