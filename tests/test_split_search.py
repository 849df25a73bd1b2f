"""Presorted column-block split search against a per-node-argsort oracle.

The oracle below sorts every node's rows again and re-scores every feature
in Python, which is how split search worked before column blocks. The
column-block search must grow the same trees bit for bit: same features,
thresholds, leaf values and split counts, so the same in-sample predictions.
The oracle reads nothing from learners.split_cache, so it also checks that
the cached per-sample constants stand in exactly for what they replace.
Like fit_tree, the oracle tree searches the residual scaled by a power of
two to a largest |r| in [0.5, 1) and takes its leaf means unscaled, and
numbers its nodes in creation order, so the trees compare array by array.
"""

import gc
import heapq
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rboost.learners as learners
from rboost import Dataset, TrainConfig, TreeLearnerSpec, train
from rboost.learners import RegressionTree, fit_tree

_MIN_GAIN_REL = 1e-12


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
        lo, hi = float(xs[pos, feat]), float(xs[pos + 1, feat])
        threshold = 0.5 * (lo + hi)
        if not lo <= threshold < hi:
            threshold = lo
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
    """The oracle's tree: node 0 the root, a split's two children appended as it is made, left first.

    A leaf holds feature, left and right -1, threshold 0.0 and its mean; a
    split holds NaN as its value, as fit_tree writes them.
    """
    r = np.asarray(residual, dtype=np.float64)
    peak = np.max(np.abs(r))
    searched = np.ldexp(r, -np.frexp(peak)[1]) if peak > 0 else r
    X = data.features
    nodes = [[-1, 0.0, -1, -1, _oracle_routed_mean(r)]]  # feature, threshold, left, right, value
    frontier = []
    counter = 0
    cand = _oracle_best_split(X, searched, np.arange(data.m))
    if cand is not None:
        heapq.heappush(frontier, (-cand[0], counter, 0, cand))
        counter += 1
    splits = 0
    while frontier and splits < n_splits:
        _, _, node, (_, feat, threshold, left_rows, right_rows) = heapq.heappop(frontier)
        left = len(nodes)
        nodes[node] = [feat, threshold, left, left + 1, np.nan]
        splits += 1
        for child, child_rows in ((left, left_rows), (left + 1, right_rows)):
            nodes.append([-1, 0.0, -1, -1, _oracle_routed_mean(r[child_rows])])
            cand = _oracle_best_split(X, searched, child_rows)
            if cand is not None:
                heapq.heappush(frontier, (-cand[0], counter, child, cand))
                counter += 1
    return RegressionTree(*zip(*nodes), data.d)


def _assert_same_arrays(tree, want):
    """Same split count and width, and the five arrays byte for byte, the node numbering included."""
    assert (tree.n_splits, tree.n_features) == (want.n_splits, want.n_features)
    for name in ("feature", "threshold", "left", "right", "value"):
        assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name


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
    tree = fit_tree(data, r, n_splits)
    want = _oracle_fit_tree(data, r, n_splits)
    _assert_same_arrays(tree, want)
    assert tree.predict(X).tobytes() == want.predict(X).tobytes()


_DUPLICATED = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [2.0, 2.0, 0.0], [3.0, 3.0, 2.0]])


@settings(max_examples=400, deadline=None)
@given(split_cases())
@example((_DUPLICATED, np.array([3.0, -1.0, 2.0, -2.0, 1.0]) * 1e300, 4))  # band not finite
@example((_DUPLICATED, np.array([3.0, -1.0, 2.0, -2.0, 1.0]) * 1e-150, 4))
@example((_DUPLICATED, np.array([1e-170, -1e-170, 2e-170, -1e-170, 0.0]), 3))  # subnormal squares
def test_column_blocks_grow_the_oracle_tree(case):
    _assert_same_tree(*case)


@st.composite
def shared_sample_cases(draw):
    """One feature matrix mixing tie-free and tied columns, and several (residual, n_splits) fits on it."""
    m = draw(st.integers(2, 40))
    tied = draw(st.lists(st.sampled_from(["integer", "rounded", "constant", "duplicate"]), min_size=1, max_size=4))
    kinds = draw(st.permutations(["normal"] * draw(st.integers(1, 2)) + tied))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        cols.append(_column(kind, m, rng, cols))
    fits = []
    for _ in range(draw(st.integers(2, 6))):
        r = _residual(draw(st.sampled_from(["normal", "integer", "two_level"])), m, rng)
        fits.append((r * 10.0 ** draw(st.integers(-150, 300)), draw(st.integers(1, 8))))
    return np.column_stack(cols), fits


@settings(max_examples=150, deadline=None)
@given(shared_sample_cases())
def test_fits_sharing_one_dataset_grow_the_oracle_trees(case):
    # Every fit after the first reads the split cache the first one built.
    # The root search is compared on its own (gain bits, feature, threshold
    # and partition); the trees, J = 1 to 8, cover the searches below it.
    X, fits = case
    data = Dataset(X, np.zeros(X.shape[0]))
    cache = learners.split_cache(data)
    rows = np.arange(data.m)
    for r, n_splits in fits:
        with np.errstate(over="ignore", invalid="ignore"):  # unscaled gains overflow at the largest scales
            got = learners._best_split(cache, r, cache.rows, cache.order)
            want = _oracle_best_split(X, r, rows)
        tree = fit_tree(data, r, n_splits)
        want_tree = _oracle_fit_tree(data, r, n_splits)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[1:3] == want[1:3]
            assert rows[got[3]].tolist() == want[3].tolist()
        _assert_same_arrays(tree, want_tree)
        assert tree.predict(X).tobytes() == want_tree.predict(X).tobytes()
    assert learners.split_cache(data) is cache


def _tied_share(X):
    xs = np.sort(X, axis=0)
    return np.count_nonzero(xs[1:] == xs[:-1]) / max(xs[1:].size, 1)


@st.composite
def tie_heavy_cases(draw):
    """A feature matrix at least half of whose root boundaries are ties, and fits on it.

    Categorical, rounded, binary and constant columns, at most one of them
    continuous; constant columns are added until the share reaches one half.
    """
    m = draw(st.integers(2, 40))
    kinds = draw(st.lists(st.sampled_from(["integer", "rounded", "constant", "duplicate", "binary"]), min_size=1, max_size=4))
    if draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), "normal")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        cols.append(rng.integers(0, 2, m).astype(np.float64) if kind == "binary" else _column(kind, m, rng, cols))
    while _tied_share(np.column_stack(cols)) < 0.5:
        cols.insert(draw(st.integers(0, len(cols))), np.full(m, -1.25))
    fits = []
    for _ in range(draw(st.integers(2, 5))):
        r = _residual(draw(st.sampled_from(["normal", "integer", "two_level"])), m, rng)
        fits.append((r * 10.0 ** draw(st.integers(-150, 300)), draw(st.integers(1, 8))))
    return np.column_stack(cols), fits


def _assert_root_search_is_the_oracles(data, r):
    """The root search, untied scan or dense, against the oracle and each other, gain bits included."""
    cache = learners.split_cache(data)
    with np.errstate(over="ignore", invalid="ignore"):  # unscaled gains overflow at the largest scales
        got = learners._best_split(cache, r, cache.rows, cache.order)
        dense = learners._best_split(cache._replace(root_scan=None), r, cache.rows, cache.order)
        want = _oracle_best_split(data.features, r, np.arange(data.m))
    assert (got is None) == (dense is None) == (want is None)
    if got is not None:
        assert np.float64(got[0]).tobytes() == np.float64(dense[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1:3] == dense[1:3] == want[1:3]
        assert got[3].tobytes() == dense[3].tobytes()
        assert np.flatnonzero(got[3]).tolist() == want[3].tolist()


def _assert_tie_heavy_fits_grow_the_oracle_trees(X, fits):
    data = Dataset(X, np.zeros(X.shape[0]))
    assert learners.split_cache(data).root_scan is not None
    for r, n_splits in fits:
        _assert_root_search_is_the_oracles(data, r)
        tree = fit_tree(data, r, n_splits)
        want_tree = _oracle_fit_tree(data, r, n_splits)
        _assert_same_arrays(tree, want_tree)
        assert tree.predict(X).tobytes() == want_tree.predict(X).tobytes()


@settings(max_examples=150, deadline=None)
@given(tie_heavy_cases())
# equal gains at boundaries 0 and 2 of column 0: the first, the smaller threshold, wins
@example((np.column_stack([np.arange(4.0), np.full(4, 7.0)]), [(np.array([1.0, -1.0, -1.0, 1.0]), 1)]))
def test_tie_heavy_samples_grow_the_oracle_trees(case):
    # The root scans only its untied boundaries on these samples.
    _assert_tie_heavy_fits_grow_the_oracle_trees(*case)


_EDGE_SAMPLES = {
    # 4 of 8 boundaries tied, exactly the threshold; only column 1 is live
    "half_one_live_column": np.column_stack([np.zeros(5), [0.3, -1.0, 2.0, 0.5, 1.5]]),
    # 4 of 8 tied, both columns live
    "half_two_live_columns": np.column_stack([[0.0, 1.0, 0.0, 2.0, 1.0], [1.0, 1.0, 3.0, 0.0, 0.0]]),
    "every_column_constant": np.column_stack([np.full(6, 2.0), np.full(6, -1.0)]),
    "m2": np.array([[0.0, 5.0], [1.0, 5.0]]),
    "m2_constant": np.array([[5.0], [5.0]]),
    "m3": np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0]]),
    "m3_one_live_column": np.array([[0.0, 4.0], [0.0, 4.0], [1.0, 4.0]]),
    "categorical_and_rounded": np.column_stack([
        np.tile([0.0, 1.0, 2.0], 10), np.round(np.linspace(-2, 2, 30)) / 2, np.random.default_rng(4).normal(size=30),
    ]),
}


@pytest.mark.parametrize("name", sorted(_EDGE_SAMPLES))
def test_edge_tie_heavy_samples_grow_the_oracle_trees(name):
    X = _EDGE_SAMPLES[name]
    rng = np.random.default_rng(len(name))
    fits = [(kind(X.shape[0]), n_splits) for kind in (rng.standard_normal, lambda m: rng.integers(-3, 4, m) * 1.0)
            for n_splits in (1, 2, 4, 8)]
    fits.append((np.zeros(X.shape[0]), 1))
    _assert_tie_heavy_fits_grow_the_oracle_trees(X, fits)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 3, 7])
def test_non_finite_residuals_end_as_the_dense_scan_ends(bad, where):
    # A column whose gains include a NaN has a NaN best and is skipped, by
    # either scan; so is one whose best is inf. The trees are the same too.
    X = _EDGE_SAMPLES["categorical_and_rounded"]
    r = np.random.default_rng(where).standard_normal(30)
    r[where] = bad
    if where and np.isinf(bad):
        r[where + 11] = -bad  # inf - inf: NaN sums beside the infinite ones
    tied = Dataset(X, np.zeros(30))
    dense = Dataset(X, np.zeros(30))
    learners._SPLIT_CACHES[dense] = learners.split_cache(dense)._replace(root_scan=None)
    assert learners.split_cache(tied).root_scan is not None
    cache = learners.split_cache(tied)
    with np.errstate(over="ignore", invalid="ignore"):
        got = learners._best_split(cache, r, cache.rows, cache.order)
        want = learners._best_split(learners.split_cache(dense), r, cache.rows, cache.order)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes() and got[1:3] == want[1:3]
        for n_splits in (1, 3):
            _assert_same_arrays(fit_tree(tied, r, n_splits), fit_tree(dense, r, n_splits))


_MAX = float(np.finfo(np.float64).max)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (np.nextafter(1.0, 0.0), 1.0),  # lo + hi rounds to 2.0, so the midpoint is hi
        (np.nextafter(_MAX, 0.0), _MAX),  # lo + hi overflows
        (-_MAX, np.nextafter(-_MAX, 0.0)),
    ],
    ids=["adjacent", "near_max", "near_min"],
)
def test_a_midpoint_off_the_open_interval_falls_back_to_the_lower_value(lo, hi):
    # Every other search keeps its midpoint strictly between the two values;
    # here only the lower value itself separates them.
    data = Dataset(np.array([[lo], [hi], [lo], [hi], [hi]]), np.zeros(5))
    r = np.array([1.0, -1.0, 2.0, -2.0, -0.5])
    tree = fit_tree(data, r, 1)
    assert tree.feature.tolist() == [0, -1, -1] and tree.threshold[0] == lo
    _assert_same_arrays(tree, _oracle_fit_tree(data, r, 1))
    assert tree.predict(data.features).tolist() == [1.5, -7 / 6, 1.5, -7 / 6, -7 / 6]


@st.composite
def any_tie_share_cases(draw):
    """(X, r): m in 2..60, d in 1..4, each column tied at a drawn share of 0 to 0.9 of its boundaries.

    A column of k distinct values has m - k of its m - 1 boundaries tied.
    r is normal or integer, scaled by 10^e, and may hold NaN or +-inf.
    """
    m, d = draw(st.integers(2, 60)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(d):
        k = m - round(draw(st.floats(0.0, 0.9)) * (m - 1))
        levels = rng.choice(1000, k, replace=False) / 8.0
        cols.append(rng.permutation(np.concatenate([levels, levels[rng.integers(0, k, m - k)]])))
    r = _residual(draw(st.sampled_from(["normal", "integer"])), m, rng) * 10.0 ** draw(st.integers(-150, 300))
    for bad in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2)):
        r[rng.integers(m)] = bad
    return np.column_stack(cols), r


@settings(max_examples=200, deadline=None)
@given(any_tie_share_cases())
@example((np.array([[0.5], [-2.0], [3.0], [1.0], [0.25]]), np.array([1.0, -2.0, 0.5, 3.0, -1.0])))  # no ties
def test_the_untied_root_scan_finds_the_dense_split_at_any_tie_share(case):
    # The untied scan installed on samples whose cache picks either scan.
    X, r = case
    cache = learners.split_cache(Dataset(X, np.zeros(X.shape[0])))
    xs = np.take_along_axis(cache.xt, cache.order, axis=1)
    untied = cache._replace(root_scan=learners._root_scan(xs[:, 1:] == xs[:, :-1]))
    with np.errstate(over="ignore", invalid="ignore"):  # unscaled gains overflow at the largest scales
        got = learners._best_split(untied, r, cache.rows, cache.order)
        want = learners._best_split(cache._replace(root_scan=None), r, cache.rows, cache.order)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes() and got[1:3] == want[1:3]
        assert got[3].tobytes() == want[3].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_a_non_finite_residual_grows_one_leaf_without_a_warning(bad, where):
    # Every boundary has the bad value on one side, so no gain is finite.
    # Outside np.errstate: pytest turns a floating-point warning into an error.
    r = np.arange(5.0)
    r[where] = bad
    tree = fit_tree(Dataset(np.arange(5.0)[:, None], np.zeros(5)), r, 3)
    assert tree.n_splits == 0 and tree.feature.tolist() == [-1]
    assert tree.value.tobytes() == np.float64(_oracle_routed_mean(r)).tobytes()


def test_wide_continuous_data_grows_the_oracle_tree():
    # distinct values in 10 columns: the band leaves most columns unscored
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, (300, 10))
    r = np.sin(3 * X[:, 0]) + 0.1 * rng.standard_normal(300)
    for n_splits in (1, 4, 12):
        _assert_same_tree(X, r, n_splits)


def test_residual_scales_whose_gains_overflow_or_underflow_still_split():
    # Searched unscaled, these gains overflow to inf (1e160) or underflow
    # to zero (1e-170), and the trees grew no split at all.
    tree = fit_tree(Dataset(np.arange(4.0), np.zeros(4)), np.array([-1.0, -1.0, 1.0, 1.0]) * 1e160, 1)
    assert (tree.n_splits, tree.threshold[0]) == (1, 1.5)
    assert tree.value[tree.feature < 0].tolist() == [-1e160, 1e160]
    tree = fit_tree(Dataset(np.arange(5.0), np.zeros(5)), np.array([1.0, -1.0, 2.0, -1.0, 0.0]) * 1e-170, 1)
    assert (tree.n_splits, tree.threshold[0]) == (1, 2.5)
    # A boosting run on targets of size 1e153 trains as it does at size 1.
    X = np.random.default_rng(0).uniform(-2, 2, (200, 1))
    y = np.sin(1.5 * X[:, 0])
    config = TrainConfig("boosting", 20, TreeLearnerSpec(2))
    model, _ = train(Dataset(X, y), config)
    big, _ = train(Dataset(X, y * 1e153), config)
    assert len(big) == len(model) == 20
    rel_error = np.sqrt(np.mean((big.predict(X) / 1e153 - y) ** 2) / np.mean(y * y))
    assert rel_error == pytest.approx(np.sqrt(np.mean((model.predict(X) - y) ** 2) / np.mean(y * y)), rel=1e-9)


@st.composite
def rescaled_cases(draw):
    """(X, residual, n_splits, s): a tie-heavy case at unit scale and a power-of-two exponent s."""
    m = draw(st.integers(2, 40))
    kinds = draw(st.lists(st.sampled_from(["normal", "integer", "rounded", "constant", "duplicate"]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        cols.append(_column(kind, m, rng, cols))
    r = _residual(draw(st.sampled_from(["normal", "integer", "two_level"])), m, rng)
    return np.column_stack(cols), r, draw(st.integers(1, 8)), draw(st.integers(-600, 600))


@settings(max_examples=200, deadline=None)
@given(rescaled_cases())
@example((np.arange(4.0)[:, None], np.array([-1.0, -1.0, 1.0, 1.0]), 1, 531))  # squares overflow
def test_a_power_of_two_rescale_of_the_residual_rescales_only_the_leaves(case):
    X, r, n_splits, s = case
    data = Dataset(X, np.zeros(X.shape[0]))
    tree = fit_tree(data, r, n_splits)
    scaled = fit_tree(data, np.ldexp(r, s), n_splits)
    for name in ("feature", "threshold", "left", "right"):
        assert getattr(scaled, name).tobytes() == getattr(tree, name).tobytes()
    assert scaled.value.tobytes() == np.ldexp(tree.value, s).tobytes()


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


@st.composite
def partition_cases(draw):
    """(block, go_left): a node's (d, n) column block, each row its rows in some order, and a mask over row ids."""
    m = draw(st.integers(1, 30))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.flatnonzero(rng.random(m) < draw(st.floats(0.0, 1.0)))
    block = np.array([rng.permutation(rows) for _ in range(d)], dtype=np.intp).reshape(d, rows.size)
    return block, rng.random(m) < draw(st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(partition_cases())
def test_the_byte_mask_partition_is_the_boolean_index(case):
    block, go_left = case
    mask = go_left[block]
    left, right = learners._partition(block, go_left)
    assert left.dtype == right.dtype == block.dtype
    assert left.shape == (block.shape[0], np.count_nonzero(mask[0]))
    assert left.tolist() == block[mask].reshape(block.shape[0], -1).tolist()
    assert right.tolist() == block[~mask].reshape(block.shape[0], -1).tolist()


_SMALL_NODE_SAMPLE = np.column_stack([
    [0.5, -1.0, 2.0, 0.25, 1.5, -0.75, 3.0, 1.0],  # distinct
    [1.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0],  # tied
    [4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0],  # constant
])


@pytest.mark.parametrize("n", [2, 3])
def test_nodes_of_two_and_three_rows_are_searched_as_the_oracle_searches(n):
    # Below the root the end column, a placeholder, is a third to a half of each gain row.
    data = Dataset(_SMALL_NODE_SAMPLE, np.zeros(8))
    cache = learners.split_cache(data)
    rng = np.random.default_rng(n)
    for rows in itertools.combinations(range(8), n):
        rows = np.array(rows)
        keep = np.isin(cache.order, rows)
        block = cache.order[keep].reshape(3, n)
        for r in (rng.standard_normal(8), rng.integers(-1, 2, 8) * 1.0):
            got = learners._best_split(cache, r, rows, block)
            want = _oracle_best_split(data.features, r, rows)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
                assert got[1:3] == want[1:3]
                assert rows[got[3]].tolist() == want[3].tolist()


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_trees_grown_down_to_nodes_of_two_and_three_rows_are_the_oracles(m):
    rng = np.random.default_rng(m)
    X = _SMALL_NODE_SAMPLE[:m]
    for r in (rng.standard_normal(m), rng.integers(-2, 3, m) * 1.0, np.arange(m) * 1.0):
        for n_splits in (1, 2, 3, 5, 8):
            _assert_same_tree(X, r, n_splits)


def _largest_prefix_gain_is_tied(X, r, rows):
    """Whether the node's largest prefix-sum gain, its ties unmasked, lies on a tied boundary."""
    sub = X[rows]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    csum = np.cumsum(r[rows][order], axis=0)
    nl = np.arange(1, rows.size, dtype=np.float64)[:, None]
    gain = csum[:-1] ** 2 / nl + (csum[-1] - csum[:-1]) ** 2 / (rows.size - nl)
    pos, feat = np.unravel_index(np.argmax(gain), gain.shape)
    return bool(xs[pos, feat] == xs[pos + 1, feat])


def test_the_dense_root_and_its_child_mask_the_tied_boundary_with_the_largest_prefix_gain():
    # Column 0 holds the ties 2, 2 and 5, 5, too few for the untied root scan; column 1 is distinct.
    # At the root the largest prefix gain falls between the two 5s, and in the root's right child
    # (rows 3, 7, 8, 9) between them again. Splitting there would put one 5 on each side, so the
    # search must take each node's best untied boundary: column 0 at 4.5, then column 1 between 0.1 and 0.2.
    X = np.column_stack([
        [3.0, 0.0, 2.0, 5.0, 2.0, 1.0, 4.0, 5.0, 6.0, 7.0],
        [0.4, -0.3, 0.9, 0.1, -0.8, 0.6, -0.5, 0.2, 0.7, -0.1],
    ])
    r = np.array([0.0, -1.0, -1.0, -1.0, -2.0, 0.0, 0.0, 4.0, 2.0, 2.0])
    data = Dataset(X, np.zeros(10))
    cache = learners.split_cache(data)
    assert cache.root_scan is None and cache.tied.tolist() == [0]
    rows, block = cache.rows, cache.order
    for want_rows, want_split in ((list(range(10)), (0, 4.5)), ([3, 7, 8, 9], (1, 0.5 * (0.1 + 0.2)))):
        assert rows.tolist() == want_rows
        assert _largest_prefix_gain_is_tied(X, r, rows)
        got = learners._best_split(cache, r, rows, block)
        want = _oracle_best_split(X, r, rows)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1:3] == want[1:3] == want_split
        assert rows[got[3]].tolist() == want[3].tolist()
        rows = want[4]  # the right child
        block = learners._partition(block, X[:, got[1]] <= got[2])[1]


class TestColumnOrder:
    """SplitCache.order: each column's row ids in stable ascending order, the root's block."""

    def test_stable_read_only_and_cached(self):
        X = np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        data = Dataset(X, np.zeros(4))
        order = learners.split_cache(data).order
        assert order.shape == (2, 4)
        assert order.tolist() == [[3, 1, 0, 2], [2, 0, 1, 3]]
        assert not order.flags.writeable
        with pytest.raises(ValueError):
            order[0, 0] = 1
        assert learners.split_cache(data).order is order

    def test_subset_gets_its_own(self):
        X = np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        data = Dataset(X, np.zeros(4))
        parent = learners.split_cache(data).order
        sub = data.subset([2, 0, 3])
        assert learners.split_cache(sub).order is not parent
        assert learners.split_cache(sub).order.tolist() == np.argsort(X[[2, 0, 3]], axis=0, kind="stable").T.tolist()
        assert learners.split_cache(data).order is parent


def _tie_positions(X):
    """Flat positions j * m + p of the tied root boundaries, worked out from the sorted columns."""
    xs = np.sort(X, axis=0)
    col, pos = np.nonzero((xs[1:] == xs[:-1]).T)
    return (col * X.shape[0] + pos).tolist()


def _cache_arrays(cache):
    """Every array of a SplitCache, the RootScan's included, by field name."""
    arrays = [getattr(cache, name) for name in cache._fields if name != "root_scan"]
    scan = cache.root_scan
    return arrays + ([getattr(scan, name) for name in scan._fields] if scan is not None else [])


class TestSplitCache:
    X = np.array([[2.0, 1.0, 0.5], [1.0, 1.0, 0.25], [2.0, 0.0, 0.75], [0.0, 1.0, 1.0]])
    # 3 of the 9 root boundaries above are ties; 5 of the 9 here, so the root scans only the 4 untied ones
    TIED = np.array([[2.0, 1.0, 0.5], [1.0, 1.0, 0.5], [2.0, 0.0, 0.5], [0.0, 1.0, 1.0]])

    def test_contents(self):
        cache = learners.split_cache(Dataset(self.X, np.zeros(4)))
        assert cache.xt.tolist() == self.X.T.tolist() and cache.xt.flags.c_contiguous
        assert cache.order.tolist() == [[3, 1, 0, 2], [2, 0, 1, 3], [1, 0, 2, 3]] and cache.order.flags.c_contiguous
        assert cache.tied.tolist() == [0, 1]  # column 2 has no repeated value
        # sorted column 0 is 0, 1, 2, 2 (tie at boundary 2); column 1 is 0, 1, 1, 1 (boundaries 1 and 2):
        # the root masks these in the tied columns alone, and every column's end, position 3
        assert _tie_positions(self.X) == [0 * 4 + 2, 1 * 4 + 1, 1 * 4 + 2]
        assert sorted({p // 4 for p in _tie_positions(self.X)}) == cache.tied.tolist()
        assert cache.rows.tolist() == [0, 1, 2, 3]
        assert cache.counts.dtype == np.float64 and cache.counts.tolist() == [3.0, 2.0, 1.0, 1.0, 2.0, 3.0, 4.0]
        for n in (2, 3, 4):  # left counts 1..n, right counts n - 1..1 and the end column's placeholder 1
            assert cache.counts[4 - 1 : 4 - 1 + n].tolist() == list(range(1, n + 1))
            assert cache.counts[4 - n : 4].tolist() == [*range(n - 1, 0, -1), 1]
        assert cache.root_scan is None  # a third of the boundaries are ties: the dense scan

    def test_root_scan_contents(self):
        cache = learners.split_cache(Dataset(self.TIED, np.zeros(4)))
        # sorted: column 0 is 0, 1, 2, 2 (boundaries 0 and 1 untied), column 1 is 0, 1, 1, 1
        # (boundary 0), column 2 is 0.5, 0.5, 0.5, 1 (boundary 2)
        ties = _tie_positions(self.TIED)
        assert len(ties) == 5
        assert ties == [0 * 4 + 2, 1 * 4 + 1, 1 * 4 + 2, 2 * 4 + 0, 2 * 4 + 1]
        assert cache.tied.tolist() == [0, 1, 2]
        scan = cache.root_scan
        ends = [0 * 4 + 3, 1 * 4 + 3, 2 * 4 + 3]
        assert sorted([*scan.at.tolist(), *ties, *ends]) == list(range(3 * 4))  # untied, tied or an end, once
        assert scan.at.tolist() == [0 * 4 + 0, 0 * 4 + 1, 1 * 4 + 0, 2 * 4 + 2]
        assert scan.total_at.tolist() == [3, 3, 7, 11]
        assert scan.nl.dtype == scan.nr.dtype == np.float64
        assert scan.nl.tolist() == [1.0, 2.0, 1.0, 3.0] and scan.nr.tolist() == [3.0, 2.0, 3.0, 1.0]
        assert scan._fields == ("at", "total_at", "nl", "nr")

    @pytest.mark.parametrize("m, d, ties", [(9, 2, 8), (9, 2, 7), (2, 3, 3), (3, 1, 2), (5, 3, 12)])
    def test_root_scan_from_half_the_boundaries_tied(self, m, d, ties):
        # column j holds ties at its first boundaries until `ties` are placed
        X = np.tile(np.arange(m, dtype=np.float64)[:, None], (1, d))
        left = ties
        for j in range(d):
            k = min(left, m - 1)
            X[: k + 1, j] = 0.0
            left -= k
        cache = learners.split_cache(Dataset(X, np.zeros(m)))
        assert len(_tie_positions(X)) == ties
        assert cache.tied.tolist() == sorted({p // m for p in _tie_positions(X)})
        assert (cache.root_scan is not None) == (2 * ties >= d * (m - 1))

    def test_read_only_and_cached(self):
        for X in (self.X, self.TIED):
            data = Dataset(X, np.zeros(4))
            cache = learners.split_cache(data)
            for array in _cache_arrays(cache):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[0] = 0
            assert learners.split_cache(data) is cache
        assert cache.root_scan is not None

    def test_subset_gets_its_own(self):
        data = Dataset(self.X, np.zeros(4))
        parent = learners.split_cache(data)
        sub = data.subset([1, 2, 3])  # column 0 is 1, 2, 0 there: its tie left with row 0
        assert learners.split_cache(sub) is not parent
        assert learners.split_cache(sub).xt.tolist() == self.X[[1, 2, 3]].T.tolist()
        assert learners.split_cache(sub).tied.tolist() == [1]
        assert _tie_positions(self.X[[1, 2, 3]]) == [1 * 3 + 1]
        assert learners.split_cache(data) is parent
        assert parent.tied.tolist() == [0, 1]

    def test_an_entry_dies_with_its_dataset(self):
        data = Dataset(self.X, np.zeros(4))
        xt = weakref.ref(learners.split_cache(data).xt)
        gc.collect()
        assert xt() is not None  # the map keeps the cache while its Dataset lives
        del data
        gc.collect()
        assert xt() is None

    def test_fits_never_write_to_the_dataset(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.normal(size=60), rng.integers(-2, 3, 60), np.round(rng.normal(size=60), 1)])
        y = rng.normal(size=60)
        # the dense root scan, then the untied one: a binary column takes the ties past one half
        for data in (Dataset(X, y), Dataset(np.column_stack([X, rng.integers(0, 2, 60)]), y)):

            def snapshot():
                return [a.tobytes() for a in (data.features, data.targets, *_cache_arrays(learners.split_cache(data)))]

            before = snapshot()
            for n_splits in (1, 3, 8):
                fit_tree(data, rng.normal(size=60), n_splits)
            train(data, TrainConfig("ddrboosting", 10, TreeLearnerSpec(4)))
            assert snapshot() == before
        assert learners.split_cache(data).root_scan is not None
