"""Flat-array trees against a linked-node oracle, and trees deeper than Python's recursion limit.

The oracle keeps the recursive row routing that trees used before they
were stored as flat arrays: a node sends its rows left or right by fancy
indexing and every leaf writes its value into the output. The iterative
descent must give the same bits for single trees, for Ensemble.predict,
staged_predict and expanded_predict, on C- and F-ordered inputs.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictionary_learner import DictionaryAtom
from rboost import Dataset, Ensemble, TrainConfig, TreeLearnerSpec, load_model, save_model, train
from rboost.core import Stage, as_feature_matrix
from rboost.learners import NormalizedLearner, RegressionTree, fit_tree


class _Node:
    def __init__(self, spec):
        self.value = spec.get("value")
        self.feature = spec.get("feature")
        self.threshold = spec.get("threshold", 0.0)
        self.left = _Node(spec["left"]) if "left" in spec else None
        self.right = _Node(spec["right"]) if "right" in spec else None

    def is_leaf(self):
        return self.feature is None


class _RoutedTree:
    """Recursive-descent copy of a tree, built from its v1 dict."""

    def __init__(self, tree):
        self._root = _Node(tree.to_dict()["root"])

    def predict(self, X):
        X = as_feature_matrix(X)
        out = np.empty(X.shape[0], dtype=np.float64)
        self._route(self._root, X, np.arange(X.shape[0]), out)
        return out

    def _route(self, node, X, rows, out):
        if node.is_leaf():
            out[rows] = node.value
            return
        go_left = X[rows, node.feature] <= node.threshold
        self._route(node.left, X, rows[go_left], out)
        self._route(node.right, X, rows[~go_left], out)


def _oracle_stage_predictions(model, X):
    """Per-stage learner outputs through the oracle trees, scaled as NormalizedLearner does."""
    return [st.learner.scale * _RoutedTree(st.learner.base).predict(X) for st in model.stages]


def _oracle_staged(model, X):
    f = np.zeros(as_feature_matrix(X).shape[0])
    rows = []
    for st, g in zip(model.stages, _oracle_stage_predictions(model, X)):
        f = (1.0 - st.alpha) * f + st.beta * g
        rows.append(f)
    return rows


def _oracle_expanded(model, X):
    f = np.zeros(as_feature_matrix(X).shape[0])
    for c, g in zip(model.effective_coefficients(), _oracle_stage_predictions(model, X)):
        f += c * g
    return f


def _tree_json(tree):
    return json.dumps(tree.to_dict(), sort_keys=True)


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
    thresholds = [t for s in model.stages for t in s.learner.base.threshold[s.learner.base.feature >= 0]]
    if thresholds:
        pool.append(np.array(thresholds))
    pool = np.concatenate(pool + [np.array([np.nan, np.inf, -np.inf])])
    Q = rng.choice(pool, size=(n, d))
    order = draw(st.sampled_from(["C", "F"]))
    return model, np.asfortranarray(Q) if order == "F" else np.ascontiguousarray(Q)


@settings(max_examples=120, deadline=None)
@given(models_and_queries())
def test_descent_matches_the_recursive_oracle(case):
    model, Q = case
    for st_ in model.stages:
        tree = st_.learner.base
        assert tree.predict(Q).tobytes() == _RoutedTree(tree).predict(Q).tobytes()
    staged = _oracle_staged(model, Q)
    if staged:
        assert model.predict(Q).tobytes() == staged[-1].tobytes()
        assert model.staged_predict(Q).tobytes() == np.array(staged).tobytes()
    assert model.expanded_predict(Q).tobytes() == _oracle_expanded(model, Q).tobytes()
    if Q.shape[1] == 1:  # a 1-d input is n points in d = 1
        assert model.predict(Q[:, 0]).tobytes() == model.predict(Q).tobytes()


@settings(max_examples=40, deadline=None)
@given(models_and_queries())
def test_save_load_round_trip_is_bit_exact(case):
    model, Q = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path, {"note": "round trip"})
        loaded, meta = load_model(path)
        text = path.read_text()
        save_model(loaded, path, meta)
        assert path.read_text() == text
    assert meta == {"note": "round trip"}
    assert loaded.predict(Q).tobytes() == model.predict(Q).tobytes()
    assert loaded.staged_predict(Q).tobytes() == model.staged_predict(Q).tobytes()
    for a, b in zip(model.stages, loaded.stages):
        assert _tree_json(b.learner.base) == _tree_json(a.learner.base)
    # the file is the sorted, 2-space-indented JSON of its own content
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_arrays_are_flat_and_children_follow_parents():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (60, 3))
    r = rng.standard_normal(60)
    tree = fit_tree(Dataset(X, np.zeros(60)), r, 5)
    split = tree.feature >= 0
    assert tree.n_splits == int(split.sum()) == 5
    assert tree.feature.size == 11
    assert np.all(tree.left[split] > np.flatnonzero(split))
    assert np.all(tree.right[split] == tree.left[split] + 1)
    assert np.all(tree.left[~split] == -1) and np.all(tree.right[~split] == -1)
    # only leaf means are computed: a split's value is unknown when grown, as when read back
    assert np.all(np.isnan(tree.value[split]))
    clone = RegressionTree.from_dict(tree.to_dict())
    assert np.all(np.isnan(clone.value[clone.feature >= 0]))
    assert _tree_json(clone) == _tree_json(tree)
    assert clone.predict(X).tobytes() == tree.predict(X).tobytes()


def test_single_leaf_tree_predicts_its_value():
    tree = fit_tree(Dataset([[0.0], [1.0]], np.zeros(2)), [2.5, 2.5], 3)
    assert tree.n_splits == 0 and tree.depth() == 0
    assert tree.predict(np.array([[7.0], [np.nan], [-1.0]])).tolist() == [2.5, 2.5, 2.5]
    assert tree.predict(np.empty((0, 1))).shape == (0,)
    assert tree.to_dict() == {"n_splits": 0, "n_features": 1, "root": {"value": 2.5}}


# The ROADMAP repro: alternating residuals of growing size make every split
# peel one row off the end, so 1,200 splits grow a chain 1,200 levels deep.
_DEEP_M, _DEEP_SPLITS = 1300, 1200


@pytest.fixture(scope="module")
def deep_tree():
    i = np.arange(_DEEP_M)
    X = i.astype(np.float64).reshape(-1, 1)
    r = (-1.0) ** i * 1.02**i
    return fit_tree(Dataset(X, np.zeros(_DEEP_M)), r, _DEEP_SPLITS), X, r


def test_deep_tree_predicts_the_routed_leaf_means(deep_tree):
    tree, X, r = deep_tree
    assert tree.n_splits == _DEEP_SPLITS
    assert tree.depth() == _DEEP_SPLITS
    pred = tree.predict(X)
    # route every row to its leaf id, one level at a time for all rows at once
    node = np.zeros(X.shape[0], dtype=np.int64)
    while np.any(tree.feature[node] >= 0):
        split = tree.feature[node] >= 0
        go_left = X[np.arange(X.shape[0]), np.maximum(tree.feature[node], 0)] <= tree.threshold[node]
        node = np.where(split, np.where(go_left, tree.left[node], tree.right[node]), node)
    for leaf in np.unique(node):
        rows = node == leaf
        assert np.all(pred[rows] == float(np.mean(np.sort(r[rows]))))
    assert tree.predict(np.asfortranarray(X)).tobytes() == pred.tobytes()


def _wide_tree(n_splits):
    rng = np.random.default_rng(n_splits)
    X = rng.uniform(-2, 2, (400, 3))
    return fit_tree(Dataset(X, np.zeros(400)), rng.standard_normal(400), n_splits), X


# Node ids are int8 up to 128 nodes: 63 splits (127 nodes) is the largest
# int8 tree, 64 splits (129 nodes) the smallest int64 one.
@pytest.mark.parametrize("n_splits", [63, 64, _DEEP_SPLITS])
@pytest.mark.parametrize("order", ["C", "F"])
def test_both_id_widths_match_the_recursive_oracle(n_splits, order, deep_tree):
    tree, X = deep_tree[:2] if n_splits == _DEEP_SPLITS else _wide_tree(n_splits)
    assert tree.n_splits == n_splits and tree.feature.size == 2 * n_splits + 1
    rng = np.random.default_rng(0)
    pool = np.concatenate([X.ravel(), tree.threshold[tree.feature >= 0], [np.nan, np.inf, -np.inf]])
    Q = np.vstack([X, rng.choice(pool, size=X.shape)])
    Q = np.asfortranarray(Q) if order == "F" else np.ascontiguousarray(Q)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n_splits))  # the oracle recurses once per level
    try:
        want = _RoutedTree(tree).predict(Q)
    finally:
        sys.setrecursionlimit(limit)
    assert tree.predict(Q).tobytes() == want.tobytes()


def test_in_place_recursion_never_writes_a_learners_output():
    """A learner may return a view of X; predict and staged_predict only read it."""
    rng = np.random.default_rng(11)
    X = np.asfortranarray(rng.normal(size=(50, 2)))
    before = X.copy()
    atom = DictionaryAtom(0, lambda A: A[:, 0])
    assert np.shares_memory(atom.predict(X), X)  # Ensemble's column-major copy of X is X itself
    stages = [Stage(a, b, atom) for a, b in [(0.0, 1.0), (0.5, -2.0), (1.5, 0.25), (-0.3, 3.0)]]
    model = Ensemble(stages)
    f, staged = np.zeros(50), []
    for st_ in stages:
        f = (1 - st_.alpha) * f + st_.beta * X[:, 0]
        staged.append(f)
    assert model.predict(X).tobytes() == staged[-1].tobytes()
    assert X.tobytes() == before.tobytes()
    assert model.staged_predict(X).tobytes() == np.array(staged).tobytes()
    assert X.tobytes() == before.tobytes()


def test_deep_tree_converts_to_and_from_the_nested_form(deep_tree):
    tree, X, _ = deep_tree
    spec = tree.to_dict()
    clone = RegressionTree.from_dict(spec)
    assert clone.depth() == _DEEP_SPLITS
    assert clone.predict(X).tobytes() == tree.predict(X).tobytes()


def test_deep_tree_save_raises_a_clear_error_and_writes_nothing(deep_tree, tmp_path):
    tree, _, _ = deep_tree
    model = Ensemble([Stage(1.0, 1.0, NormalizedLearner(tree, 1.0))])
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match=f"depth {_DEEP_SPLITS}"):
        save_model(model, path)
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=f"depth {_DEEP_SPLITS}"):
        save_model(model, path)
    assert path.read_text() == "kept\n"


def test_over_nested_model_file_raises_a_clear_error(tmp_path):
    levels = 5000
    split = '{"feature": 0, "threshold": 0.5, "left": {"value": 1.0}, "right": '
    root = split * levels + '{"value": 0.0}' + "}" * levels
    tree = '{"n_splits": %d, "n_features": 1, "root": %s}' % (levels, root)
    stages = '[{"alpha": 1.0, "beta": 1.0, "learner": {"type": "tree", "tree": %s}}]' % tree
    # brackets inside a string do not count towards the nesting depth
    text = '{"format": "rboost-model", "version": 1, "meta": {"note": "[[{{\\\\"}, "offset": 0.0, "stages": %s}' % stages
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"nests {levels + 6} levels deep"):
        load_model(path)


@pytest.mark.parametrize("feature", [-1, 2])
def test_a_split_on_a_missing_feature_is_rejected(feature):
    root = {"feature": feature, "threshold": 0.5, "left": {"value": 1.0}, "right": {"value": 2.0}}
    with pytest.raises(ValueError, match=f"feature {feature}"):
        RegressionTree.from_dict({"n_splits": 1, "n_features": 2, "root": root})
