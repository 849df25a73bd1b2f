import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictionary_learner import DegenerateLearnerError, DictionaryAtom, DictionaryLearnerSpec
from rboost import Dataset, TreeLearnerSpec, learners
from rboost.core import empirical_norm
from rboost.learners import RegressionTree, fit_tree


def stump_oracle(X, r):
    """Exhaustive best (feature, midpoint) search; ties to lower feature, smaller threshold."""
    m, d = X.shape
    sse_parent = np.sum((r - r.mean()) ** 2)
    best = None
    for f in range(d):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (lo + hi)
            if not lo <= thr < hi:
                thr = lo
            mask = X[:, f] <= thr
            left, right = r[mask], r[~mask]
            reduction = sse_parent - np.sum((left - left.mean()) ** 2) - np.sum((right - right.mean()) ** 2)
            key = (-reduction, f, thr)
            if best is None or key < best[0]:
                best = (key, f, thr, left.mean(), right.mean())
    return best


def tree_sse(tree, X, r):
    return float(np.sum((r - tree.predict(X)) ** 2))


class TestFitTree:
    def test_constant_residual_single_leaf(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], np.zeros(4))
        tree = fit_tree(data, [5.0, 5.0, 5.0, 5.0], 4)
        assert tree.n_splits == 0
        assert tree.predict(data.features).tolist() == [5.0] * 4

    def test_step_function_split(self):
        # Exhaustive search over midpoints {0.5, 1.5, 2.5} puts the split at 1.5.
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], np.zeros(4))
        tree = fit_tree(data, [0.0, 0.0, 10.0, 10.0], 1)
        assert tree.n_splits == 1
        assert tree.threshold[0] == 1.5
        assert sorted(tree.value[tree.feature < 0].tolist()) == [0.0, 10.0]

    def test_stump_matches_oracle(self):
        rng = np.random.default_rng(321)
        for _ in range(25):
            m = int(rng.integers(5, 120))
            d = int(rng.integers(1, 6))
            X = rng.uniform(-2, 2, (m, d))
            r = rng.standard_normal(m)
            tree = fit_tree(Dataset(X, np.zeros(m)), r, 1)
            _, f, thr, lmean, rmean = stump_oracle(X, r)
            assert (tree.feature[0], tree.threshold[0]) == (f, thr)
            assert tree.value[tree.left[0]] == pytest.approx(lmean, abs=1e-12)
            assert tree.value[tree.right[0]] == pytest.approx(rmean, abs=1e-12)

    def test_growth_monotone_in_training_sse(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(-2, 2, (80, 3))
        r = rng.standard_normal(80)
        data = Dataset(X, np.zeros(80))
        sses = [tree_sse(fit_tree(data, r, j), X, r) for j in range(1, 6)]
        for a, b in zip(sses[:-1], sses[1:]):
            assert b <= a + 1e-9

    def test_leaf_values_are_routed_means(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(-2, 2, (60, 2))
        r = rng.standard_normal(60)
        tree = fit_tree(Dataset(X, np.zeros(60)), r, 4)
        pred = tree.predict(X)
        for value in set(pred.tolist()):
            mask = pred == value
            assert value == pytest.approx(r[mask].mean(), abs=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(29)
        X = rng.uniform(-2, 2, (70, 2))  # continuous draws: per-column values distinct
        r = rng.standard_normal(70)
        tree = fit_tree(Dataset(X, np.zeros(70)), r, 4)
        perm = rng.permutation(70)
        tree_p = fit_tree(Dataset(X[perm], np.zeros(70)), r[perm], 4)
        grid = rng.uniform(-2, 2, (200, 2))
        assert np.array_equal(tree.predict(grid), tree_p.predict(grid))

    def test_split_budget_capped_by_data(self):
        data = Dataset([[0.0], [1.0]], np.zeros(2))
        tree = fit_tree(data, [1.0, 2.0], 4)
        assert tree.n_splits == 1  # only one boundary exists

    def test_equal_frontier_gains_split_the_lower_node_id_first(self):
        X = np.array([[0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 2, 3, 0, 1, 2, 3]], dtype=np.float64).T
        r = np.array([1.5, 1.5, -0.5, -0.5, 0.5, 0.5, -1.5, -1.5])
        data = Dataset(X, r)
        # Both children of the root's x1 <= 1.5 split search to x0 <= 0.5 with
        # bit-equal gains on the searched scale (r / 2), so only the id decides.
        cache, searched = learners.split_cache(data), r / 2
        go_left = X[:, 1] <= 1.5
        children = zip((go_left, ~go_left), learners._partition(cache.order, go_left))
        gains = [learners._best_split(cache, searched, cache.rows[rows], block)[:3] for rows, block in children]
        assert gains[0] == gains[1] == (0.25, 0, 0.5)
        tree = fit_tree(data, r, 2)
        assert tree.feature.tolist() == [1, 0, -1, -1, -1]
        assert (tree.left.tolist(), tree.right.tolist()) == ([1, 3, -1, -1, -1], [2, 4, -1, -1, -1])
        assert tree.value[2:].tolist() == [-1.0, 1.5, 0.5]  # node 2 stays the leaf of rows 2, 3, 6 and 7

    def test_rejects_bad_inputs(self):
        data = Dataset([[0.0], [1.0]], np.zeros(2))
        with pytest.raises(ValueError):
            fit_tree(data, [1.0, 2.0], 0)
        with pytest.raises(ValueError):
            fit_tree(data, [1.0, 2.0, 3.0], 1)

    def test_predict_rejects_dimension_mismatch(self):
        data = Dataset([[0.0], [1.0]], np.zeros(2))
        tree = fit_tree(data, [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((3, 2)))


class TestFitStump:
    def test_delegates_to_single_split(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], np.zeros(4))
        stump = fit_tree(data, [0.0, 0.0, 10.0, 10.0], 1)
        assert stump.n_splits == 1
        assert stump.threshold[0] == 1.5

    def test_two_point_split(self):
        data = Dataset([[0.0], [1.0]], np.zeros(2))
        stump = fit_tree(data, [-1.0, 1.0], 1)
        assert stump.threshold[0] == 0.5
        assert sorted(stump.value[stump.feature < 0].tolist()) == [-1.0, 1.0]

    def test_constant_residual_single_leaf(self):
        data = Dataset([[0.0], [1.0]], np.zeros(2))
        stump = fit_tree(data, [2.0, 2.0], 1)
        assert stump.n_splits == 0


def normalize_learner(atom, data):
    """The unit-norm learner the dictionary fitter makes of a single atom."""
    learner, _ = DictionaryLearnerSpec((atom,)).bind(data).fit_step(np.ones(data.m))
    return learner


class TestNormalizeLearner:
    def test_scale_is_reciprocal_norm(self):
        data = Dataset(np.zeros((5, 1)), np.zeros(5))
        atom = DictionaryAtom(0, lambda X: np.full(X.shape[0], 2.0))
        normalized = normalize_learner(atom, data)
        assert normalized.scale == pytest.approx(0.5)
        assert empirical_norm(normalized.predict(data.features)) == pytest.approx(1.0, abs=1e-10)

    def test_identity_on_unit_norm(self):
        data = Dataset(np.zeros((3, 1)), np.zeros(3))
        atom = DictionaryAtom(0, lambda X: np.ones(X.shape[0]))
        assert normalize_learner(atom, data).scale == pytest.approx(1.0)

    def test_degenerate_signal(self):
        data = Dataset(np.zeros((3, 1)), np.zeros(3))
        atom = DictionaryAtom(0, lambda X: np.zeros(X.shape[0]))
        with pytest.raises(DegenerateLearnerError):
            DictionaryLearnerSpec((atom,)).bind(data)


def unit_atoms_on(data, columns):
    """Wrap fixed value columns as atoms, pre-normalized to unit norm on data."""
    atoms = []
    for i, col in enumerate(columns):
        scaled = col / empirical_norm(col)
        atoms.append(DictionaryAtom(i, lambda X, v=scaled: v.copy()))
    return atoms


def select_from_dictionary(atoms, data, residual):
    """The dictionary fitter's pick for the residual, as (atom, <residual, g>_m)."""
    learner, values = DictionaryLearnerSpec(tuple(atoms)).bind(data).fit_step(residual)
    return learner.base, float(np.mean(values * residual))


class TestSelectFromDictionary:
    def test_only_aligned_atom_wins(self):
        data = Dataset(np.zeros((4, 1)), np.zeros(4))
        cols = [np.array([1.0, -1.0, 1.0, -1.0]), np.array([1.0, 1.0, -1.0, -1.0])]
        atoms = unit_atoms_on(data, cols)
        residual = np.array([1.0, 1.0, -1.0, -1.0])  # orthogonal to atom 0
        chosen, inner = select_from_dictionary(atoms, data, residual)
        assert chosen.atom_id == 1
        assert inner == pytest.approx(1.0)

    def test_residual_equal_to_atom(self):
        data = Dataset(np.zeros((4, 1)), np.zeros(4))
        col = np.array([2.0, -1.0, 0.5, 1.0])
        atoms = unit_atoms_on(data, [col, np.array([1.0, 1.0, 1.0, 1.0])])
        residual = atoms[0].predict(data.features)
        chosen, inner = select_from_dictionary(atoms, data, residual)
        assert chosen.atom_id == 0
        assert inner == pytest.approx(1.0, rel=1e-12)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(41)
        data = Dataset(np.zeros((30, 1)), np.zeros(30))
        for _ in range(20):
            cols = [rng.standard_normal(30) for _ in range(5)]
            atoms = unit_atoms_on(data, cols)
            residual = rng.standard_normal(30)
            chosen, inner = select_from_dictionary(atoms, data, residual)
            inners = [np.mean(a.predict(data.features) * residual) for a in atoms]
            assert chosen.atom_id == int(np.argmax(np.abs(inners)))
            assert inner == pytest.approx(inners[chosen.atom_id], rel=1e-12)

    def test_exact_tie_goes_to_lowest_atom_id(self):
        data = Dataset(np.zeros((2, 1)), np.zeros(2))
        col = np.array([1.0, -1.0])
        twin_a = DictionaryAtom(7, lambda X: col.copy())
        twin_b = DictionaryAtom(2, lambda X: col.copy())
        chosen, _ = select_from_dictionary([twin_a, twin_b], data, np.array([0.5, -0.5]))
        assert chosen.atom_id == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DictionaryLearnerSpec(())


class TestLearnerSpecs:
    def test_tree_fitter_returns_unit_norm_step(self):
        rng = np.random.default_rng(43)
        X = rng.uniform(-2, 2, (40, 2))
        data = Dataset(X, np.zeros(40))
        fitter = TreeLearnerSpec(2).bind(data)
        learner, values = fitter.fit_step(rng.standard_normal(40))
        assert empirical_norm(values) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(learner.predict(X), values)

    @pytest.mark.parametrize("bad", [2.5, 0, 0.0, "2", None])
    def test_rejects_a_split_budget_that_is_not_a_positive_integer(self, bad):
        data = Dataset(np.linspace(-2, 2, 200), np.zeros(200))
        with pytest.raises(ValueError, match=f"n_splits must be a positive integer, got {bad!r}"):
            TreeLearnerSpec(bad)
        with pytest.raises(ValueError, match=f"n_splits must be a positive integer, got {bad!r}"):
            fit_tree(data, np.sin(np.linspace(-2, 2, 200)), bad)

    def test_an_integral_float_budget_is_used_as_an_int(self):
        X = np.linspace(-2, 2, 200)
        spec = TreeLearnerSpec(3.0)
        assert type(spec.n_splits) is int and spec.n_splits == 3
        tree = fit_tree(Dataset(X, np.zeros(200)), np.sin(X), 3.0)
        want = fit_tree(Dataset(X, np.zeros(200)), np.sin(X), 3)
        assert (tree.n_splits, tree.n_features) == (want.n_splits, want.n_features) == (3, 1)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(want, name).tobytes()

    def test_tree_fitter_degenerate_on_zero_residual(self):
        data = Dataset([[0.0], [1.0]], np.zeros(2))
        fitter = TreeLearnerSpec(1).bind(data)
        assert fitter.fit_step(np.zeros(2)) is None

    def test_dictionary_fitter_skips_zero_atoms(self):
        data = Dataset(np.zeros((3, 1)), np.zeros(3))
        atoms = (
            DictionaryAtom(0, lambda X: np.zeros(X.shape[0])),
            DictionaryAtom(1, lambda X: np.ones(X.shape[0])),
        )
        fitter = DictionaryLearnerSpec(atoms).bind(data)
        learner, values = fitter.fit_step(np.array([1.0, 1.0, 1.0]))
        assert learner.base.atom_id == 1

    def test_dictionary_fitter_orthogonal_residual_stops(self):
        data = Dataset(np.zeros((2, 1)), np.zeros(2))
        atoms = (DictionaryAtom(0, lambda X: np.array([1.0, 1.0])),)
        fitter = DictionaryLearnerSpec(atoms).bind(data)
        assert fitter.fit_step(np.array([1.0, -1.0])) is None


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 60),
    d=st.integers(1, 4),
    n_splits=st.integers(1, 6),
    integer_residual=st.booleans(),
)
def test_fit_tree_is_invariant_to_row_permutations(seed, m, d, n_splits, integer_residual):
    # Continuous draws keep each column's values distinct. Integer
    # residuals make exact gain ties, which must break the same way too.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (m, d))
    r = rng.standard_normal(m)
    if integer_residual:
        r = np.round(3 * r)
    perm = rng.permutation(m)
    tree = fit_tree(Dataset(X, np.zeros(m)), r, n_splits)
    tree_p = fit_tree(Dataset(X[perm], np.zeros(m)), r[perm], n_splits)
    for name in ("feature", "threshold", "left", "right", "value"):
        assert getattr(tree, name).tobytes() == getattr(tree_p, name).tobytes(), name


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 60),
    d=st.integers(1, 4),
    n_splits=st.integers(1, 8),
    tied=st.booleans(),
)
def test_fit_step_values_are_the_learners_in_sample_predictions(seed, m, d, n_splits, tied):
    # fit_step takes its values from the tree's partition, not from a
    # descent. They must be the descent's in-sample predictions divided by
    # their empirical norm, bit for bit. (The learner multiplies by 1 / norm
    # instead, which can differ in the last bit.)
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, (m, d)).astype(np.float64) if tied else rng.uniform(-2, 2, (m, d))
    data = Dataset(X, rng.standard_normal(m))
    step = TreeLearnerSpec(n_splits).bind(data).fit_step(rng.standard_normal(m))
    assert step is not None
    learner, values = step
    leaf_means = RegressionTree(learner.feature, learner.threshold, learner.left, learner.right, learner.value, d)
    pred = leaf_means.predict(data.features)  # a copy at scale 1.0
    nrm = float(np.sqrt((pred * pred).sum() / m))
    assert learner.scale == 1.0 / nrm
    assert values.tobytes() == (pred / nrm).tobytes()
    np.testing.assert_allclose(values, learner.predict(data.features), rtol=1e-15, atol=0)
