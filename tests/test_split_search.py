"""Presorted column-block split search against a per-node-argsort oracle.

The oracle below sorts every node's rows again and re-scores every feature
in Python, which is how split search worked before column blocks. The
column-block search must grow the same trees bit for bit: same features,
thresholds, leaf values and split counts, so the same in-sample predictions.
"""

import heapq
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rboost.learners as learners
from rboost import Dataset, fit_tree
from rboost.learners import RegressionTree

_MIN_GAIN_REL = 1e-12


class _Node:
    """The oracle's linked tree node; to_dict gives the v1 nested form."""

    def __init__(self, value):
        self.feature = None
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value

    def to_dict(self):
        if self.feature is None:
            return {"value": self.value}
        return {"feature": self.feature, "threshold": self.threshold, "left": self.left.to_dict(), "right": self.right.to_dict()}


def _oracle_routed_mean(values):
    return float(np.mean(np.sort(values)))


def _oracle_best_split(X, r, rows):
    n = rows.size
    if n < 2:
        return None
    sub = X[rows]
    r_node = r[rows]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    rs = r_node[order]
    csum = np.cumsum(rs, axis=0)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    sl = csum[:-1]
    sr = csum[-1] - sl
    gain = sl * sl / nl + sr * sr / (n - nl)
    gain[xs[1:] == xs[:-1]] = -np.inf
    best_pos = np.argmax(gain, axis=0)

    total = float(np.sum(r_node))
    node_sse = float(np.dot(r_node, r_node) - total * total / n)
    min_gain = max(node_sse * _MIN_GAIN_REL, 0.0)
    best = None
    for feat in range(sub.shape[1]):
        pos = int(best_pos[feat])
        if not np.isfinite(gain[pos, feat]):
            continue
        threshold = 0.5 * (xs[pos, feat] + xs[pos + 1, feat])
        if not xs[pos, feat] <= threshold < xs[pos + 1, feat]:
            threshold = float(xs[pos, feat])
        go_left = sub[:, feat] <= threshold
        n_left = int(np.count_nonzero(go_left))
        s_left = float(np.sum(r_node[go_left]))
        s_right = float(np.sum(r_node[~go_left]))
        canonical = s_left * s_left / n_left + s_right * s_right / (n - n_left) - total * total / n
        if canonical <= min_gain:
            continue
        if best is None or canonical > best[0]:
            best = (canonical, feat, float(threshold), go_left)
    if best is None:
        return None
    canonical, feat, threshold, go_left = best
    return canonical, feat, threshold, rows[go_left], rows[~go_left]


def _oracle_fit_tree(data, residual, n_splits):
    r = np.asarray(residual, dtype=np.float64)
    X = data.features
    root = _Node(_oracle_routed_mean(r))
    frontier = []
    counter = 0
    cand = _oracle_best_split(X, r, np.arange(data.m))
    if cand is not None:
        heapq.heappush(frontier, (-cand[0], counter, root, cand))
        counter += 1
    splits = 0
    while frontier and splits < n_splits:
        _, _, node, (_, feat, threshold, left_rows, right_rows) = heapq.heappop(frontier)
        node.feature = feat
        node.threshold = threshold
        node.left = _Node(_oracle_routed_mean(r[left_rows]))
        node.right = _Node(_oracle_routed_mean(r[right_rows]))
        splits += 1
        for child, child_rows in ((node.left, left_rows), (node.right, right_rows)):
            cand = _oracle_best_split(X, r, child_rows)
            if cand is not None:
                heapq.heappush(frontier, (-cand[0], counter, child, cand))
                counter += 1
    return RegressionTree.from_dict({"n_splits": splits, "n_features": data.d, "root": root.to_dict()})


def _column(kind, m, rng, earlier):
    if kind == "duplicate" and earlier:
        return earlier[rng.integers(len(earlier))].copy()
    if kind == "integer":
        return rng.integers(-2, 3, m).astype(np.float64)
    if kind == "rounded":
        return np.round(rng.normal(size=m), 1)
    if kind == "constant":
        return np.full(m, 0.75)
    return rng.normal(size=m)


def _residual(kind, m, rng):
    if kind == "integer":
        return rng.integers(-3, 4, m).astype(np.float64)
    if kind == "two_level":
        return np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return rng.normal(size=m)


@st.composite
def split_cases(draw):
    """Tie-heavy (X, residual, n_splits) cases at residual scales 1e-150 to 1e300."""
    m = draw(st.integers(2, 40))
    kinds = draw(st.lists(st.sampled_from(["normal", "integer", "rounded", "constant", "duplicate"]), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        cols.append(_column(kind, m, rng, cols))
    r = _residual(draw(st.sampled_from(["normal", "integer", "two_level"])), m, rng)
    r = r * 10.0 ** draw(st.integers(-150, 300))
    return np.column_stack(cols), r, draw(st.integers(1, 8))


def _assert_same_tree(X, r, n_splits):
    data = Dataset(X, np.zeros(X.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # gains overflow at the largest scales
        tree = fit_tree(data, r, n_splits)
        want = _oracle_fit_tree(data, r, n_splits)
    assert json.dumps(tree.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)
    assert tree.predict(X).tobytes() == want.predict(X).tobytes()


_DUPLICATED = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [2.0, 2.0, 0.0], [3.0, 3.0, 2.0]])


@settings(max_examples=400, deadline=None)
@given(split_cases())
@example((_DUPLICATED, np.array([3.0, -1.0, 2.0, -2.0, 1.0]) * 1e300, 4))  # band not finite
@example((_DUPLICATED, np.array([3.0, -1.0, 2.0, -2.0, 1.0]) * 1e-150, 4))
@example((_DUPLICATED, np.array([1e-170, -1e-170, 2e-170, -1e-170, 0.0]), 3))  # subnormal squares
def test_column_blocks_grow_the_oracle_tree(case):
    _assert_same_tree(*case)


def test_wide_continuous_data_grows_the_oracle_tree():
    # distinct values in 10 columns: the band leaves most columns unscored
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, (300, 10))
    r = np.sin(3 * X[:, 0]) + 0.1 * rng.standard_normal(300)
    for n_splits in (1, 4, 12):
        _assert_same_tree(X, r, n_splits)


@pytest.mark.parametrize("n_splits", [1, 2, 4, 8])
def test_split_searches_per_tree(monkeypatch, n_splits):
    calls = []

    def counting(*args):
        calls.append(None)
        return real(*args)

    real = learners._best_split
    monkeypatch.setattr(learners, "_best_split", counting)
    rng = np.random.default_rng(n_splits)
    X = rng.uniform(size=(200, 3))
    tree = fit_tree(Dataset(X, np.zeros(200)), rng.standard_normal(200), n_splits)
    assert tree.n_splits == n_splits
    assert len(calls) <= 2 * n_splits - 1
    if n_splits == 1:
        assert len(calls) == 1


class TestColumnOrder:
    def test_stable_read_only_and_cached(self):
        X = np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        data = Dataset(X, np.zeros(4))
        order = data.column_order
        assert order.shape == (2, 4)
        assert order.tolist() == [[3, 1, 0, 2], [2, 0, 1, 3]]
        assert not order.flags.writeable
        with pytest.raises(ValueError):
            order[0, 0] = 1
        assert data.column_order is order

    def test_subset_gets_its_own(self):
        X = np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        data = Dataset(X, np.zeros(4))
        parent = data.column_order
        sub = data.subset([2, 0, 3])
        assert sub.column_order is not parent
        assert sub.column_order.tolist() == np.argsort(X[[2, 0, 3]], axis=0, kind="stable").T.tolist()
        assert data.column_order is parent
