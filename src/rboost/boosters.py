"""The three training loops and their step-size searches.

All three share the projection-of-gradient step (fit/select a unit-norm
weak learner against the plain residual y - f_{k-1}) and differ in how the
update f_k = (1 - alpha_k) f_{k-1} + beta_k g_k picks (alpha_k, beta_k):

  boosting      alpha_k = 0,          beta_k = <r_{k-1}, g_k>_m
  rboosting     alpha_k = 2 / (k+u),  beta_k = <y - (1-alpha_k) f_{k-1}, g_k>_m
  ddrboosting   (alpha_k, beta_k) = exact 2-d least-squares over R^2

Selection always uses the plain residual, not the shrinkage residual;
that distinction is what separates re-scaled greedy steps from jointly
re-optimized ones. Training stops early when the residual is numerically
zero or the fitted learner is degenerate, reporting the achieved count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import Dataset, Ensemble, Stage, TrainConfig, inner

# Residual below this (relative to the target scale) means the sample is fit.
_RESIDUAL_TOL = 1e-13

# The smallest normal double: a mean square of nonzero targets below it has lost bits to underflow.
_TINY = float(np.finfo(np.float64).tiny)

# Gram determinants at or below this relative level trigger the 1-d fallback.
_GRAM_TOL = 1e-12


def shrinkage_alpha(k: int, u: int) -> float:
    """Schedule alpha_k = 2 / (k + u) for step k >= 1 and re-scale factor u >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    return 2.0 / (k + u)


class TwoDimResult(NamedTuple):
    alpha: float
    beta: float
    gram_fallback: bool


def two_dim_linear_search(f_prev, g, y) -> TwoDimResult:
    """Jointly optimal (alpha, beta) for f_new = (1 - alpha) f_prev + beta g.

    Solves the 2x2 normal equations of projecting y onto span{f_prev, g}
    in the empirical inner product; the search is over all of R^2, so
    alpha may be negative (or exceed 1). When f_prev and g are near
    linearly dependent the system is ill-posed and the step is the plain
    one-dimensional one: alpha = 0, beta = <y - f_prev, g> / ||g||^2. With
    f_prev = 0 (the first step) span{f_prev, g} is span{g}, so that step is
    the exact optimum and gram_fallback is False; with f_prev != 0 it is a
    fallback and gram_fallback is True.
    """
    f = np.asarray(f_prev, dtype=np.float64)
    gv = np.asarray(g, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if not f.shape == gv.shape == yv.shape:
        raise ValueError(f"length mismatch: {f.shape}, {gv.shape}, {yv.shape}")
    gg = inner(gv, gv)
    if gg <= 0.0:
        raise ValueError("g must have positive empirical norm")
    ff = inner(f, f)
    fg = inner(f, gv)
    yf = inner(yv, f)
    yg = inner(yv, gv)
    det = ff * gg - fg * fg
    if det <= _GRAM_TOL * ff * gg:
        return TwoDimResult(0.0, (yg - fg) / gg, ff > 0.0)
    a = (yf * gg - yg * fg) / det
    beta = (ff * yg - fg * yf) / det
    return TwoDimResult(1.0 - a, beta, False)


@dataclass(frozen=True)
class TrainingTrace:
    """Per-iteration record of one training run.

    Arrays all have length equal to the achieved iteration count:
    empirical risk after the update, the applied (alpha, beta), the l1
    norm of the effective coefficients, and whether the DDR step hit the
    near-singular Gram fallback. stop_reason is None for a full run, else
    "zero_residual" or "degenerate_learner".
    """

    risk: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    l1_norm: np.ndarray
    gram_fallback: np.ndarray
    stop_reason: Optional[str] = None

    def __len__(self) -> int:
        return self.risk.size


def train(data: Dataset, config: TrainConfig):
    """Run the training loop named by config.algorithm; returns (Ensemble, TrainingTrace).

    Training stops with "zero_residual" once rms(r) <= 1e-13 * rms(y), a
    tolerance relative to the targets at every scale. Raises ValueError
    when the mean square of the targets overflows, or of targets not all
    zero falls below the smallest normal double, since no residual could
    then be measured against the target scale.
    """
    y = data.targets
    f = np.zeros(data.m)
    r = y - f
    with np.errstate(over="ignore"):
        risk = inner(r, r)  # mean(y^2)
    if risk == math.inf or (risk < _TINY and y.any()):
        flow = "overflows" if risk == math.inf else "underflows"
        raise ValueError(
            f"the mean square of the targets {flow} float64 (max |y| = {np.abs(y).max():.3g}); rescale them"
        )
    tolerance = _RESIDUAL_TOL * math.sqrt(risk)
    fitter = config.learner_spec.bind(data)
    algorithm = config.algorithm

    stages = []
    coeffs = np.empty(config.max_iterations)
    risks, l1s, fallbacks = [], [], []
    stop_reason = None

    for k in range(1, config.max_iterations + 1):
        if np.sqrt(risk) <= tolerance:
            stop_reason = "zero_residual"
            break
        step = fitter.fit_step(r)
        if step is None:
            stop_reason = "degenerate_learner"
            break
        learner, g = step
        fallback = False
        if algorithm == "ddrboosting":
            alpha, beta, fallback = two_dim_linear_search(f, g, y)
        else:  # plain boosting is the re-scaled step with alpha = 0, where y - 1.0 * f is r bit for bit
            alpha = shrinkage_alpha(k, config.u) if algorithm == "rboosting" else 0.0
            beta = inner(y - (1.0 - alpha) * f, g)
        f = (1.0 - alpha) * f + beta * g

        coeffs[: k - 1] *= 1.0 - alpha
        coeffs[k - 1] = beta
        stages.append(Stage(alpha, beta, learner))
        r = y - f  # the next round's residual; (y - f)^2 has the bits of (f - y)^2
        risk = inner(r, r)
        risks.append(risk)
        l1s.append(float(np.sum(np.abs(coeffs[:k]))))
        fallbacks.append(fallback)

    trace = TrainingTrace(
        risk=np.asarray(risks),
        alpha=np.array([st.alpha for st in stages]),
        beta=np.array([st.beta for st in stages]),
        l1_norm=np.asarray(l1s),
        gram_fallback=np.asarray(fallbacks, dtype=bool),
        stop_reason=stop_reason,
    )
    return Ensemble(stages), trace


def _require_algorithm(config: TrainConfig, expected: str):
    if config.algorithm != expected:
        raise ValueError(f"config.algorithm is {config.algorithm!r}, expected {expected!r}")


# train under per-algorithm names that also check config.algorithm. The
# library calls train; perfbench traces these names too, so they stay.
def train_boosting(data: Dataset, config: TrainConfig):
    """Plain greedy training: unit step on the selected learner each round."""
    _require_algorithm(config, "boosting")
    return train(data, config)


def train_rboosting(data: Dataset, config: TrainConfig):
    """Re-scaled training with the alpha_k = 2/(k+u) schedule."""
    _require_algorithm(config, "rboosting")
    return train(data, config)


def train_ddrboosting(data: Dataset, config: TrainConfig):
    """Data-driven re-scaling: exact two-dimensional search each round."""
    _require_algorithm(config, "ddrboosting")
    return train(data, config)
