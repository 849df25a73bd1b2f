"""Real-dataset protocol: stump learners, half/half split, honest selection.

The sample is shuffled once with a seeded generator and divided into equal
halves (or taken pre-split when the dataset ships that way). Iteration
counts - and the re-scale factor for the re-scaled variant - are chosen on
a validation half of the training half only; the chosen settings are then
retrained on the whole training half and scored once on the test half.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import ALGORITHMS, Dataset, Ensemble, TrainConfig, check_clip_bound, integer, rmse
from .boosters import train
from .learners import TreeLearnerSpec
from .selection import adaptive_select, select_k_by_validation, split_learn_validate, u_grid

_SELECT_SALT = 0xCA11  # separates the selection shuffle stream from the main split


@dataclass(frozen=True)
class MethodOutcome:
    test_rmse: float
    selected: dict  # {"k": ...} and, for the re-scaled variant, {"u": ...}


@dataclass(frozen=True)
class RealDataReport:
    methods: Mapping[str, MethodOutcome]
    train_m: int
    test_m: int


def realdata_experiment(
    data: Optional[Dataset] = None,
    pre_split: Optional[Tuple[Dataset, Dataset]] = None,
    k_max: int = 500,
    grid: Optional[Sequence[int]] = None,
    n_splits: int = 1,
    seed: int = 0,
    clip_bound: Optional[float] = None,
) -> RealDataReport:
    """Compare the three training loops on one tabular dataset.

    Pass either data (shuffled and halved here) or pre_split=(train, test)
    for datasets that come already divided. Weak learners default to
    decision stumps (n_splits=1), matching an additive main-effects model.
    seed, an integer >= 0, seeds the halving of data and the selection split.
    """
    if (data is None) == (pre_split is None):
        raise ValueError("pass exactly one of data or pre_split")
    seed = integer(seed, "seed", 0)
    check_clip_bound(clip_bound)
    if pre_split is not None:
        train_ds, test_ds = pre_split
        if train_ds.d != test_ds.d:
            raise ValueError(f"pre_split train has d={train_ds.d} features but test has d={test_ds.d}")
    else:
        if data.m < 4:
            raise ValueError(f"need m >= 4 to split, got {data.m}")
        train_ds, test_ds = split_learn_validate(data, seed)
    grid = list(grid) if grid is not None else u_grid(20, 1, 1e6)
    select_seed = int(np.random.SeedSequence([seed, _SELECT_SALT]).generate_state(1)[0])
    learn, validate = split_learn_validate(train_ds, select_seed)
    base = TrainConfig(algorithm="boosting", max_iterations=k_max, learner_spec=TreeLearnerSpec(n_splits))

    methods = {}
    for algo in ALGORITHMS:
        cfg = replace(base, algorithm=algo)
        if algo == "rboosting":
            sel = adaptive_select(learn, validate, grid, cfg)
            cfg, k = replace(cfg, u=sel.chosen_u), sel.chosen_k
            selected = {"u": sel.chosen_u, "k": k}
        else:
            k, _ = select_k_by_validation(learn, validate, cfg)
            selected = {"k": k}
        model = train(train_ds, replace(cfg, max_iterations=k))[0] if k else Ensemble()
        pred = model.predict(test_ds.features, clip_bound=clip_bound)
        methods[algo] = MethodOutcome(rmse(pred, test_ds.targets), selected)
    return RealDataReport(methods=methods, train_m=train_ds.m, test_m=test_ds.m)
