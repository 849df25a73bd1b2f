"""A hypothesis strategy of small trained models and query rows, shared by the tree and model-file tests."""

import numpy as np
from hypothesis import strategies as st

from rboost import Dataset, TrainConfig, TreeLearnerSpec, train


@st.composite
def models_and_queries(draw):
    """A small trained model, and query rows that hit thresholds exactly."""
    m = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.normal(size=(m, d)), draw(st.integers(0, 3)))  # few decimals: ties and repeats
    y = np.sin(2 * X[:, 0]) + rng.normal(scale=0.3, size=m)
    algorithm = draw(st.sampled_from(["boosting", "rboosting", "ddrboosting"]))
    config = TrainConfig(algorithm, draw(st.integers(1, 12)), TreeLearnerSpec(draw(st.integers(1, 6))), u=3)
    model, _ = train(Dataset(X, y), config)

    n = draw(st.integers(1, 25))
    pool = [X.ravel(), rng.normal(size=n * d)]
    thresholds = [t for s in model.stages for t in s.learner.threshold[s.learner.feature >= 0]]
    if thresholds:
        pool.append(np.array(thresholds))
    pool = np.concatenate(pool + [np.array([np.nan, np.inf, -np.inf])])
    Q = rng.choice(pool, size=(n, d))
    order = draw(st.sampled_from(["C", "F"]))
    return model, np.asfortranarray(Q) if order == "F" else np.ascontiguousarray(Q)
