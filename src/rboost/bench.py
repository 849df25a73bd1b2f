"""Synthetic regression benchmark: nine target functions, noise model, trials.

Data follows Y = m(X) + sigma * eps with X uniform on [-2, 2]^d and eps
standard gaussian. Test sets are noiseless, so reported RMSE is a pure
approximation-error measure. Each trial draws fresh train and test sets
from a PCG64 generator seeded by (seed_base, trial_index); gaussian
variates come from numpy's standard_normal (ziggurat), so reruns are
bit-identical and trials are independent.

Iteration counts are chosen directly on the noiseless test set throughout
- the benchmark's oracle convention. The oracle is the same pair of
selectors that choose from data (select_k_by_validation, adaptive_select),
handed the noiseless test set as their holdout. The "rboosting" method
is adaptive_select so handed, which also picks the re-scale factor u
("ideal"); "rboosting_adaptive" instead picks u on a validation half of
the training data, which is the part of the selection problem the
adaptive strategy is meant to solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import ALGORITHMS, Dataset, TrainConfig, as_feature_matrix, check_clip_bound, integer, positive_int, rmse
from .learners import TreeLearnerSpec
from .selection import adaptive_select, select_k_by_validation, split_learn_validate, u_grid

TARGET_DIMENSIONS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 10, 8: 10, 9: 10}

_SPLIT_SALT = 0x5EED  # distinguishes the learn/validate shuffle stream from sampling


def _m2_profile(x):
    out = np.zeros_like(x)
    mask = (x >= -0.25) & (x < 0.0)
    xm = x[mask]
    out[mask] = 10.0 * np.sqrt(-xm) * np.sin(8.0 * np.pi * xm)
    return out


def _m6_profile(a, b):
    return 6.0 - 2.0 * np.minimum(3.0, 4.0 * a * a + 4.0 * np.abs(b))


def target_values(target_id: int, X) -> np.ndarray:
    """Vectorized target evaluation over the rows of an (n, d) matrix."""
    if target_id not in TARGET_DIMENSIONS:
        raise ValueError(f"target_id must be in 1..9, got {target_id}")
    X = as_feature_matrix(X)
    if X.shape[1] != TARGET_DIMENSIONS[target_id]:
        raise ValueError(
            f"target {target_id} expects d={TARGET_DIMENSIONS[target_id]}, got d={X.shape[1]}"
        )
    if target_id == 1:
        x = X[:, 0]
        return 2.0 * np.maximum(1.0, np.minimum(3.0 + 2.0 * x, 3.0 - 8.0 * x))
    if target_id == 2:
        return _m2_profile(X[:, 0])
    if target_id == 3:
        return 3.0 * np.sin(np.pi * X[:, 0] / 2.0)
    if target_id == 4:
        x1, x2 = X[:, 0], X[:, 1]
        return x1 * np.sin(x1 * x1) - x2 * np.sin(x2 * x2)
    if target_id == 5:
        x1, x2 = X[:, 0], X[:, 1]
        return 4.0 / (1.0 + 4.0 * x1 * x1 + 4.0 * x2 * x2)
    if target_id == 6:
        return _m6_profile(X[:, 0], X[:, 1])
    if target_id == 7:
        signs = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        return np.sum(signs * X * np.sin(X * X), axis=1)
    if target_id == 8:
        return _m6_profile(np.sum(X[:, :5], axis=1), np.sum(X[:, 5:], axis=1))
    return _m2_profile(np.sum(X, axis=1))  # target 9


@dataclass(frozen=True)
class SyntheticSpec:
    """One benchmark configuration: which target, how noisy, how many trials.

    noise_sigma must be a finite number >= 0; train_m, test_m and trials
    must be integers >= 1 and seed_base an integer >= 0, each stored as an
    int (an integral float such as 500.0 is stored as 500).
    """

    target_id: int
    noise_sigma: float = 0.0
    train_m: int = 500
    test_m: int = 1000
    trials: int = 20
    seed_base: int = 0

    def __post_init__(self):
        if self.target_id not in TARGET_DIMENSIONS:
            raise ValueError(f"target_id must be in 1..9, got {self.target_id}")
        if not 0 <= self.noise_sigma < np.inf:  # NaN fails too
            raise ValueError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")
        for name in ("train_m", "test_m", "trials"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))
        object.__setattr__(self, "seed_base", integer(self.seed_base, "seed_base", 0))

    @property
    def dimension(self) -> int:
        return TARGET_DIMENSIONS[self.target_id]


def sample_dataset(spec: SyntheticSpec, trial_index: int):
    """Draw the (noisy train, noiseless test) pair for one trial.

    Draw order is fixed: train features, train noise, test features. The
    generator is PCG64 seeded by (seed_base, trial_index).
    """
    if not 0 <= trial_index < spec.trials:
        raise ValueError(f"trial_index must be in [0, {spec.trials}), got {trial_index}")
    rng = np.random.default_rng([spec.seed_base, trial_index])
    d = spec.dimension
    X_train = rng.uniform(-2.0, 2.0, size=(spec.train_m, d))
    y_train = target_values(spec.target_id, X_train)
    if spec.noise_sigma > 0:
        y_train = y_train + spec.noise_sigma * rng.standard_normal(spec.train_m)
    X_test = rng.uniform(-2.0, 2.0, size=(spec.test_m, d))
    y_test = target_values(spec.target_id, X_test)
    return Dataset(X_train, y_train), Dataset(X_test, y_test)


def _split_seed(spec: SyntheticSpec, trial_index: int) -> int:
    seq = np.random.SeedSequence([spec.seed_base, trial_index, _SPLIT_SALT])
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class AlgorithmResult:
    """Mean/std test RMSE over trials plus the per-trial values and selections."""

    rmse_mean: float
    rmse_std: float
    rmse_per_trial: tuple
    selected: tuple  # per-trial dicts, e.g. {"u": 4, "k": 137}


@dataclass(frozen=True)
class UCurvePoint:
    u: int
    mean_rmse: float
    std_rmse: float


@dataclass(frozen=True)
class TrialReport:
    """Aggregated benchmark output keyed by algorithm name.

    When the comparison swept the u grid, curve holds the mean-over-trials
    test RMSE per grid value, one UCurvePoint each.
    """

    algorithms: Mapping[str, AlgorithmResult]
    curve: Optional[tuple] = None


def _mean_std(values):
    """Mean and sample std (ddof=1) over the first axis, the trials; one trial has std 0."""
    arr = np.asarray(values, dtype=np.float64)
    mean = arr.mean(axis=0)
    return mean, arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros_like(mean)


def _trial(spec, trial, methods, k_max, grid, learner_spec, clip_bound):
    """Test RMSE and selections of every method on one trial, and the oracle's per-u curve.

    Each fit is scored at its best truncation on the noiseless test set,
    the benchmark's oracle convention: select_k_by_validation handed the
    test set. With "rboosting" or "rboosting_adaptive" among the methods,
    one oracle sweep, adaptive_select handed the test set, scores every
    grid u; its per_u_curve is returned beside the rows (else None).
    "rboosting" is the sweep's best (u, k). "rboosting_adaptive" picks u
    on a shuffled learn/validate split of the training sample, recording
    the validation-chosen iteration as "k_valid", and reads its
    full-sample score for that u from the sweep, so its row isolates the
    cost of choosing u from data.
    """
    train_ds, test_ds = sample_dataset(spec, trial)
    config = TrainConfig("rboosting", k_max, learner_spec)
    risks, oracle = {}, None
    if {"rboosting", "rboosting_adaptive"}.intersection(methods):
        oracle = adaptive_select(train_ds, test_ds, grid, config, clip_bound=clip_bound)
    for method in methods:
        if method == "rboosting":
            risks[method] = (oracle.validation_risk, {"u": oracle.chosen_u, "k": oracle.chosen_k})
        elif method == "rboosting_adaptive":
            learn, validate = split_learn_validate(train_ds, _split_seed(spec, trial))
            sel = adaptive_select(learn, validate, grid, config)
            k, risk = next((k, risk) for u, k, risk in oracle.per_u_curve if u == sel.chosen_u)
            risks[method] = (risk, {"u": sel.chosen_u, "k": k, "k_valid": sel.chosen_k})
        else:
            k, risk = select_k_by_validation(train_ds, test_ds, replace(config, algorithm=method), clip_bound=clip_bound)
            risks[method] = (risk, {"k": k})
    return {method: (float(np.sqrt(risk)), sel) for method, (risk, sel) in risks.items()}, oracle and oracle.per_u_curve


def _map_trials(fn, arg_tuples, workers: int):
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    from concurrent.futures import ProcessPoolExecutor  # only a parallel run pays for its import

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*arg_tuples)))  # order-preserving


def run_comparison(
    spec: SyntheticSpec,
    algorithms: Sequence[str] = ALGORITHMS,
    k_max: int = 500,
    grid: Optional[Sequence[int]] = None,
    learner_spec=TreeLearnerSpec(4),
    clip_bound: Optional[float] = None,
    workers: int = 1,
) -> TrialReport:
    """Oracle-selection comparison of the requested methods over all trials.

    Methods are the training algorithms plus "rboosting_adaptive" (see
    _trial). Per trial, each method trains on the noisy sample and is
    scored at its best truncation on the noiseless test set. The two
    re-scaled rows share one oracle sweep of the u grid per trial: the
    oracle keeps its best (u, k), the adaptive row its score at the u
    chosen from data. Mean/std are over trials. Selection on the test
    set reproduces the comparison-table protocol and is labeled as the
    oracle it is. With "rboosting" among the methods, curve holds the
    test RMSE of every grid u: the u-curve. workers must be a positive
    integer; at 1 the trials run in this process, else in a pool of that
    many processes.
    """
    check_clip_bound(clip_bound)
    workers = positive_int(workers, "workers")
    grid = tuple(grid) if grid is not None else tuple(u_grid(20, 1, 1e6))
    args = [(spec, t, tuple(algorithms), k_max, grid, learner_spec, clip_bound) for t in range(spec.trials)]
    trials = _map_trials(_trial, args, workers)
    summaries = {}
    for algo in algorithms:
        vals = [rows[algo][0] for rows, _ in trials]
        sels = [rows[algo][1] for rows, _ in trials]
        mean, std = _mean_std(vals)
        summaries[algo] = AlgorithmResult(float(mean), float(std), tuple(vals), tuple(sels))
    curve = None
    if "rboosting" in algorithms:
        per_u = np.sqrt([[risk for _, _, risk in per_u_curve] for _, per_u_curve in trials])
        means, stds = _mean_std(per_u)
        curve = tuple(
            UCurvePoint(int(u), float(m), float(s))
            for u, m, s in zip(grid, means, stds)
        )
    return TrialReport(algorithms=summaries, curve=curve)


def selected_u_stats(result: AlgorithmResult):
    """(mean, std) of the selected u values recorded in an AlgorithmResult."""
    us = np.array([s["u"] for s in result.selected if "u" in s], dtype=np.float64)
    if us.size == 0:
        raise ValueError("no u selections recorded")
    mean, std = _mean_std(us)
    return float(mean), float(std)
