"""Choosing the re-scale factor u and the iteration count on a holdout.

A selector takes a learning sample and any holdout: the validation half
of split_learn_validate, or the benchmark's noiseless test set for its
oracle rows. Both read the budget from config.max_iterations.
select_k_by_validation trains one configuration on the learning sample,
scores all its truncations in one staged pass over the holdout and keeps
the one with the lowest risk, of the clipped predictions given a clip
bound; adaptive_select runs it once per candidate u of the re-scaled
booster and keeps the best (u, k). Selectors return choices, not models:
the caller trains its final model once, with the chosen settings, on
whatever sample it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .boosters import train
from .core import Dataset, TrainConfig, check_clip_bound, inner, integer


def u_grid(count: int, lo: float = 1.0, hi: float = 1e6) -> list:
    """Integer grid of count log-spaced values in [lo, hi], deduplicated.

    Each raw value 10**(log10(lo) + i*(log10(hi)-log10(lo))/(count-1)) is
    rounded half-up to the nearest integer and floored at 1; duplicates
    (which rounding produces at the low end of tight grids) are dropped
    preserving order. count must be an integer >= 2 and hi finite.
    """
    count = integer(count, "count", 2)
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got lo={lo}, hi={hi}")
    if hi == np.inf:
        raise ValueError(f"hi must be finite, got {hi}")
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
    holdout the selector was handed), reached at (chosen_u, chosen_k).
    """

    chosen_u: int
    chosen_k: int
    validation_risk: float
    per_u_curve: tuple


def select_k_by_validation(
    learn: Dataset, validate: Dataset, config: TrainConfig, *, clip_bound: Optional[float] = None
):
    """(k, MSE) of the truncation of config, trained on learn, with the lowest MSE on validate.

    One staged_predict pass scores every truncation, on the clipped
    predictions when clip_bound is set; ties take the smallest k. The
    scoring clips, subtracts y and squares in place in the (K, n) matrix
    of that pass, so a selection holds one such matrix. An empty model is
    the zero predictor: k = 0, scored on mean(y^2) of validate.
    """
    check_clip_bound(clip_bound)
    model, _ = train(learn, config)
    y = validate.targets
    if len(model) == 0:
        return 0, inner(y, y)
    preds = model.staged_predict(validate.features)  # fresh, so scored in place
    if clip_bound is not None:
        np.clip(preds, -clip_bound, clip_bound, out=preds)
    preds -= y
    preds *= preds
    curve = np.mean(preds, axis=1)
    k = int(np.argmin(curve)) + 1
    return k, float(curve[k - 1])


def adaptive_select(
    learn: Dataset, validate: Dataset, grid: Sequence[int], config: TrainConfig, *,
    clip_bound: Optional[float] = None,
) -> SelectionResult:
    """Pick (u, k) of the re-scaled booster by holdout risk over the grid.

    config supplies the learner spec and the budget; each grid value runs
    select_k_by_validation with algorithm "rboosting", that u and
    clip_bound, so a bad bound fails before the first fit. Ties break
    toward smaller u, then smaller k; k = 0 means the empty model won.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("u grid is empty")
    curve = []
    for u in grid:
        u_config = replace(config, algorithm="rboosting", u=u)  # TrainConfig rejects a u that is not an integer
        k, risk = select_k_by_validation(learn, validate, u_config, clip_bound=clip_bound)
        curve.append((int(u), k, risk))
    risk, u, k = min((risk, u, k) for u, k, risk in curve)
    return SelectionResult(u, k, risk, tuple(curve))
