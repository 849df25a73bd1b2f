"""Sample geometry, datasets and the staged additive model.

Everything downstream works in the empirical L2 geometry of a fixed
training sample: norms, inner products and risks are all means over the
sample rows. Models are kept in staged form, i.e. as the sequence of
(alpha_k, beta_k, g_k) updates

    f_k = (1 - alpha_k) * f_{k-1} + beta_k * g_k,

which preserves enough structure to truncate a trained model to any
earlier iteration and to track the l1 norm of the expanded coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

ALGORITHMS = ("boosting", "rboosting", "ddrboosting")


def as_feature_matrix(x) -> np.ndarray:
    """Coerce input to a float (n, d) matrix; a 1-d array is n points in d=1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"features must be 1-d or 2-d, got shape {arr.shape}")
    return arr


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """The sample inner product <a, b>_m = mean(a_i * b_i) of two float arrays of one shape, unchecked.

    One pairwise sum and one division: np.mean's bits, without its per-call overhead.
    """
    return float((a * b).sum() / a.size)


def empirical_norm(values) -> float:
    """sqrt(mean(v_i^2)) over the sample entries."""
    v = _as_vector(values, "values")
    return float(np.sqrt(inner(v, v)))


def empirical_risk(pred, targets) -> float:
    """Mean squared error mean((pred_i - y_i)^2)."""
    pv = _as_vector(pred, "pred")
    yv = _as_vector(targets, "targets")
    if pv.shape != yv.shape:
        raise ValueError(f"length mismatch: {pv.size} vs {yv.size}")
    d = pv - yv
    return inner(d, d)


def rmse(pred, truth) -> float:
    """Root mean squared error, sqrt of the empirical risk."""
    return float(np.sqrt(empirical_risk(pred, truth)))


def integer(value, name: str, minimum: int) -> int:
    """value as an int when it is an integer >= minimum (3, 3.0 and np.int64(3)
    all give 3); otherwise a ValueError naming the field."""
    try:
        integral = int(value)
    except (TypeError, ValueError, OverflowError):
        integral = None
    if integral is None or integral != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if integral < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return integral


def positive_int(value, name: str) -> int:
    """integer(value, name, 1), under one message for either fault."""
    try:
        return integer(value, name, 1)
    except ValueError:
        raise ValueError(f"{name} must be a positive integer, got {value!r}") from None


def check_clip_bound(bound: Optional[float]):
    """Reject a clip bound that is not > 0, NaN included; None means no clipping."""
    if bound is not None and not bound > 0:
        raise ValueError(f"clip bound must be > 0, got {bound}")


class Dataset:
    """An immutable regression sample: features (m, d) and targets (m,).

    Row order is part of the identity: every empirical quantity is a mean
    over rows in order. Non-finite entries are rejected up front so the
    numeric kernels never have to re-check.
    """

    __slots__ = ("_features", "_targets", "__weakref__")  # learners keeps each sample's split cache in a weak map

    def __init__(self, features, targets):
        X = as_feature_matrix(features)
        y = np.asarray(targets, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError(f"targets must be 1-d, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"row mismatch: {X.shape[0]} feature rows vs {y.shape[0]} targets")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("need at least one row and one feature column")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets contain non-finite values")
        X = np.ascontiguousarray(X)
        y = np.ascontiguousarray(y)
        X.setflags(write=False)
        y.setflags(write=False)
        self._features = X
        self._targets = y

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def targets(self) -> np.ndarray:
        return self._targets

    @property
    def m(self) -> int:
        return self._features.shape[0]

    @property
    def d(self) -> int:
        return self._features.shape[1]

    def subset(self, rows) -> "Dataset":
        """New dataset from a row index array, preserving the given order."""
        idx = np.asarray(rows)
        return Dataset(self._features[idx], self._targets[idx])

    def __len__(self) -> int:
        return self.m

    def __repr__(self) -> str:
        return f"Dataset(m={self.m}, d={self.d})"


@dataclass(frozen=True)
class TrainConfig:
    """Settings for one training run.

    algorithm: one of "boosting", "rboosting", "ddrboosting".
    max_iterations: stage budget; training may stop earlier on a
        degenerate step (zero residual or zero-norm learner).
    learner_spec: weak-learner factory, e.g. TreeLearnerSpec(n_splits=4):
        anything whose bind(data) gives a fitter with fit_step(residual).
    u: re-scale factor of the shrinkage schedule alpha_k = 2 / (k + u);
        only read by "rboosting".

    max_iterations, and u under "rboosting", must be integers >= 1; an
    integral float such as 10.0 is stored as the int 10.

    Training is deterministic, and predictions are clipped only where a
    caller asks for it, so neither a seed nor a clip bound belongs here.
    """

    algorithm: str
    max_iterations: int
    learner_spec: object
    u: int = 1

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        object.__setattr__(self, "max_iterations", positive_int(self.max_iterations, "max_iterations"))
        if self.algorithm == "rboosting":
            object.__setattr__(self, "u", positive_int(self.u, "u"))
        if self.learner_spec is None:
            raise ValueError("learner_spec is required")


@dataclass(frozen=True)
class Stage:
    """One boosting update: f <- (1 - alpha) * f + beta * learner(x)."""

    alpha: float
    beta: float
    learner: object  # anything with predict(X) -> (n,) array


class Ensemble:
    """Staged additive model with truncation and coefficient bookkeeping.

    The k-stage prediction follows the staged recursion; equivalently it
    expands to sum_j c_j g_j(x) with effective coefficients
    c_j = beta_j * prod_{i>j} (1 - alpha_i). Every model starts from
    f_0 = 0. Instances are immutable; training code builds a fresh one per
    run.
    """

    __slots__ = ("_stages",)

    def __init__(self, stages: Sequence[Stage] = ()):
        self._stages = tuple(stages)

    @property
    def stages(self) -> tuple:
        return self._stages

    def __len__(self) -> int:
        return len(self._stages)

    def __repr__(self) -> str:
        return f"Ensemble(stages={len(self._stages)})"

    def predict(self, X, clip_bound: Optional[float] = None) -> np.ndarray:
        """Evaluate the full model on feature rows via the staged recursion.

        The recursion updates its own accumulator in place: f *= 1 - alpha,
        then f += beta * g, the same bits as (1 - alpha) * f + beta * g.
        A learner's output is only read, never written. A clip_bound,
        checked before any work, truncates f to [-clip_bound, clip_bound]
        in place, which never increases its squared error against a target
        inside that band.
        """
        check_clip_bound(clip_bound)
        X = np.asfortranarray(as_feature_matrix(X))  # one copy; every tree then reads contiguous columns
        f = np.zeros(X.shape[0])
        for st in self._stages:
            f *= 1.0 - st.alpha
            f += st.beta * st.learner.predict(X)
        if clip_bound is not None:
            np.clip(f, -clip_bound, clip_bound, out=f)  # NaN stays NaN
        return f

    def staged_predict(self, X) -> np.ndarray:
        """All intermediate predictions, shape (n_stages, n_rows); row k-1 is f_k.

        Each row is written in place from the one before it (f_0 = 0):
        row = (1 - alpha) * previous, then row += beta * g, the operations
        of predict in its order, so row k-1 has the bits of
        truncate(k).predict. The returned array is fresh and the caller's
        alone; a learner's output is only read.
        """
        X = np.asfortranarray(as_feature_matrix(X))
        out = np.empty((len(self._stages), X.shape[0]), dtype=np.float64)
        previous = np.zeros(X.shape[0])
        for row, st in zip(out, self._stages):
            np.multiply(previous, 1.0 - st.alpha, out=row)
            row += st.beta * st.learner.predict(X)
            previous = row
        return out

    def effective_coefficients(self) -> np.ndarray:
        """Net weight of each stage's learner after all later (1 - alpha) discounts."""
        alphas = np.array([st.alpha for st in self._stages])
        betas = np.array([st.beta for st in self._stages])
        tail = np.ones(alphas.size)
        tail[:-1] = np.cumprod((1.0 - alphas)[:0:-1])[::-1]
        return betas * tail

    def expanded_predict(self, X) -> np.ndarray:
        """Prediction via the coefficient expansion; agrees with predict() to fp error."""
        X = np.asfortranarray(as_feature_matrix(X))
        f = np.zeros(X.shape[0])
        for c, st in zip(self.effective_coefficients(), self._stages):
            f += c * st.learner.predict(X)
        return f

    def l1_norm(self) -> float:
        """Sum of |effective coefficient| over stages."""
        return float(np.sum(np.abs(self.effective_coefficients())))

    def truncate(self, k: int) -> "Ensemble":
        """The model made of the first k stages, as the trainer had it at iteration k."""
        if not 0 <= k <= len(self._stages):
            raise ValueError(f"cannot truncate to {k} stages, model has {len(self._stages)}")
        return Ensemble(self._stages[:k])
