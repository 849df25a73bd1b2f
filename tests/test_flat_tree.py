"""Flat-array trees against a linked-node oracle, and trees deeper than Python's recursion limit.

The oracle keeps the recursive row routing that trees used before they
were stored as flat arrays: a node sends its rows left or right by fancy
indexing and every leaf writes its value into the output. The iterative
descent must give the same bits for single trees, for Ensemble.predict,
staged_predict and expanded_predict, on C- and F-ordered inputs. A second
oracle walks each row from the root on its own, for trees of any node
numbering, fitted or built by hand.
"""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from dictionary_learner import DictionaryAtom
from rboost import Dataset, Ensemble
from rboost.core import Stage, as_feature_matrix
from rboost.learners import RegressionTree, fit_tree
from trained_models import models_and_queries


class _Node:
    def __init__(self, feature, threshold, value):
        self.feature = None if feature < 0 else feature
        self.threshold = threshold
        self.value = value
        self.left = self.right = None

    def is_leaf(self):
        return self.feature is None


class _RoutedTree:
    """Recursive-descent copy of a tree: its nodes linked up from the five arrays."""

    def __init__(self, tree):
        nodes = [_Node(*spec) for spec in zip(*(a.tolist() for a in (tree.feature, tree.threshold, tree.value)))]
        for node, left, right in zip(nodes, tree.left.tolist(), tree.right.tolist()):
            if not node.is_leaf():
                node.left, node.right = nodes[left], nodes[right]
        self._root = nodes[0]

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
    """Per-stage learner outputs through the oracle trees, each times its tree's scale."""
    return [st.learner.scale * _RoutedTree(st.learner).predict(X) for st in model.stages]


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


@settings(max_examples=120, deadline=None)
@given(models_and_queries())
def test_descent_matches_the_recursive_oracle(case):
    model, Q = case
    for st_ in model.stages:
        tree = st_.learner
        assert tree.predict(Q).tobytes() == (tree.scale * _RoutedTree(tree).predict(Q)).tobytes()
    staged = _oracle_staged(model, Q)
    if staged:
        assert model.predict(Q).tobytes() == staged[-1].tobytes()
        assert model.staged_predict(Q).tobytes() == np.array(staged).tobytes()
    assert model.expanded_predict(Q).tobytes() == _oracle_expanded(model, Q).tobytes()
    if Q.shape[1] == 1:  # a 1-d input is n points in d = 1
        assert model.predict(Q[:, 0]).tobytes() == model.predict(Q).tobytes()


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


def test_single_leaf_tree_predicts_its_value():
    tree = fit_tree(Dataset([[0.0], [1.0]], np.zeros(2)), [2.5, 2.5], 3)
    assert tree.n_splits == 0 and tree.feature.tolist() == [-1]
    assert tree.predict(np.array([[7.0], [np.nan], [-1.0]])).tolist() == [2.5, 2.5, 2.5]
    assert tree.predict(np.empty((0, 1))).shape == (0,)
    tree.scale = 0.5
    assert tree.predict(np.array([[7.0], [np.nan]])).tolist() == [1.25, 1.25]


@pytest.mark.parametrize("scale", [1.0, 0.1, 3.0])
def test_scaled_leaves_keep_the_sign_of_zero(scale):
    split = RegressionTree([0, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [np.nan, -0.0, 0.0], 1)
    leaf = RegressionTree([-1], [0.0], [-1], [-1], [-0.0], 1)
    for tree in (split, leaf):
        tree.scale = scale
        Q = np.array([[-1.0], [1.0]])
        assert tree.predict(Q).tobytes() == (scale * _RoutedTree(tree).predict(Q)).tobytes()


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
    pred = tree.predict(X)
    # route every row to its leaf id, one level at a time for all rows at once
    node = np.zeros(X.shape[0], dtype=np.int64)
    depth = 0
    while np.any(tree.feature[node] >= 0):
        split = tree.feature[node] >= 0
        go_left = X[np.arange(X.shape[0]), np.maximum(tree.feature[node], 0)] <= tree.threshold[node]
        node = np.where(split, np.where(go_left, tree.left[node], tree.right[node]), node)
        depth += 1
    assert depth == _DEEP_SPLITS  # one split per level: a chain
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
    # a copy, so the fixture's tree stays at scale 1.0
    scaled = RegressionTree(tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.n_features)
    scaled.scale = 1.0 / 3.0
    assert scaled.predict(Q).tobytes() == (scaled.scale * want).tobytes()


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


def _walk(tree, X):
    """scale * value of each row's leaf, each row walked on its own from the root."""
    feature, threshold, left, right, value = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    )
    out = []
    for row in as_feature_matrix(X).tolist():
        node = 0
        while feature[node] >= 0:
            node = left[node] if row[feature[node]] <= threshold[node] else right[node]
        out.append(tree.scale * value[node])
    return np.array(out, dtype=np.float64)


@strategies.composite
def _fitted_trees(draw):
    """A tree fit_tree grows with J from 1 to 8, or 64 past the int8 ids, on tie-free or tie-heavy columns."""
    n_splits = draw(strategies.one_of(strategies.integers(1, 8), strategies.just(64)))
    m, d = draw(strategies.integers(2, 80)) if n_splits <= 8 else 300, draw(strategies.integers(1, 4))
    rng = np.random.default_rng(draw(strategies.integers(0, 2**32 - 1)))
    X = rng.uniform(-2, 2, (m, d))
    if draw(strategies.booleans()):
        X = np.round(X, 1)  # at most 41 values a column: tie-heavy
    return fit_tree(Dataset(X, np.zeros(m)), rng.standard_normal(m), n_splits), X


@strategies.composite
def _hand_built_trees(draw):
    """A random tree whose non-root nodes take shuffled ids, so siblings may be reversed or far apart."""
    n_splits = draw(strategies.one_of(strategies.integers(1, 8), strategies.integers(64, 70)))
    d = draw(strategies.integers(1, 3))
    rng = np.random.default_rng(draw(strategies.integers(0, 2**32 - 1)))
    ids = [0, *draw(strategies.permutations(range(1, 2 * n_splits + 1)))]
    size = 2 * n_splits + 1
    feature, left, right = [-1] * size, [-1] * size, [-1] * size
    threshold, value = [0.0] * size, np.round(rng.normal(size=size), 1).tolist()
    leaves = [0]  # in growth order; node k of that order has id ids[k]
    for grown in range(1, size, 2):  # split a random leaf of the tree grown so far
        node = ids[leaves.pop(int(rng.integers(len(leaves))))]
        feature[node], threshold[node], value[node] = int(rng.integers(d)), float(np.round(rng.normal(), 1)), np.nan
        left[node], right[node] = ids[grown], ids[grown + 1]
        leaves += [grown, grown + 1]
    return RegressionTree(feature, threshold, left, right, value, d), np.round(rng.normal(size=(20, d)), 1)


@settings(max_examples=200, deadline=None)
@given(strategies.one_of(_fitted_trees(), _hand_built_trees()), strategies.data())
def test_predict_gives_the_bits_of_a_per_row_walk(case, data):
    tree, X = case
    # rows on a threshold exactly, on a sample value, NaN and infinities, in C or F order
    pool = np.concatenate([X.ravel(), tree.threshold[tree.feature >= 0], [np.nan, np.inf, -np.inf]])
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2**32 - 1)))
    Q = rng.choice(pool, size=(data.draw(strategies.integers(0, 30)), tree.n_features))
    if data.draw(strategies.booleans()):
        Q = np.asfortranarray(Q)
    tree.scale = data.draw(strategies.sampled_from([1.0, 1.0 / 3.0, -2.5]))
    assert tree.predict(Q).tobytes() == _walk(tree, Q).tobytes()


# (left, right) of each split, by node id: stumps in both sibling orders, and leaf pairs reversed or apart
@pytest.mark.parametrize("children", [
    {0: (2, 1)}, {0: (1, 2)}, {0: (1, 2), 1: (4, 3)}, {0: (1, 2), 2: (3, 4)}, {0: (1, 2), 1: (3, 5), 2: (4, 6)},
    {0: (2, 1), 2: (4, 3)}, {0: (1, 4), 4: (3, 2)},
], ids=str)
def test_hand_built_sibling_layouts_predict_as_a_per_row_walk(children):
    size = 2 * len(children) + 1
    depth = {0: 0}
    for node in sorted(children):  # parents have the lower ids here
        depth.update((child, depth[node] + 1) for child in children[node])
    # a split at depth k reads column k, so every leaf is reached by some row of the grid
    feature = [depth[node] if node in children else -1 for node in range(size)]
    left, right = ([children[node][side] if node in children else -1 for node in range(size)] for side in (0, 1))
    value = [np.nan if node in children else float(node) for node in range(size)]
    tree = RegressionTree(feature, [0.0] * size, left, right, value, 3)
    Q = np.array(list(itertools.product([-1.0, 0.0, 1.0, np.nan], repeat=3)))
    pred = tree.predict(Q)
    assert pred.tobytes() == _walk(tree, Q).tobytes()
    assert set(pred.tolist()) == {float(node) for node in range(size) if node not in children}
