"""Weak learners: least-squares CART regression trees, with stumps at one split.

The gradient-projection step of the training loops needs, per iteration, a
unit-empirical-norm function aligned with the current residual. Trees get
there by least-squares fitting to the residual followed by normalization
(for unit-norm g, minimizing ||r - <r,g> g|| is the same as maximizing
|<r,g>|, so the fit is the tractable stand-in for an argmax over an
implicit tree dictionary).
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import Dataset, as_feature_matrix, empirical_norm, inner, positive_int

# Below this empirical norm a fitted learner is useless as a direction.
DEGENERATE_NORM = 1e-12

# A split must reduce node SSE by more than this relative amount, which
# keeps constant-residual nodes unsplit despite summation round-off.
_MIN_GAIN_REL = 1e-12

# Near-tie re-score band of the split search: _BAND_C * (n+2) * eps * (S^2 + tiny).
_BAND_C = 16.0
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# The largest tree whose node ids 0..n-1 fit int8 (and so do their differences).
_INT8_NODES = 128


def _leaf(value: float) -> list:
    return [-1, 0.0, -1, -1, value]  # feature, threshold, left, right, value


class RegressionTree:
    """Axis-aligned binary regression tree stored as flat parallel arrays.

    Node 0 is the root and children come after their parent. Node i is a
    split when feature[i] >= 0: x goes to left[i] iff x[feature[i]] <=
    threshold[i], else to right[i]. Leaves have feature, left and right -1
    and hold the mean of the fitting targets routed to them in value; a
    split's value is NaN, since nothing reads it: fit_tree takes means of
    leaves only. The achieved split count can fall short of the budget when
    the data has no further SSE-reducing split.

    predict returns scale * value of each row's leaf. scale is 1.0 on
    construction; a boosting stage's tree carries 1 / its empirical norm
    on the fitting sample (see _TreeFitter.fit_step), so the stage is a
    unit-norm function while value keeps the leaf means.
    """

    def __init__(self, feature, threshold, left, right, value, n_features: int):
        self.feature, self.left, self.right = (np.array(a, dtype=np.int64) for a in (feature, left, right))
        self.threshold, self.value = (np.array(a, dtype=np.float64) for a in (threshold, value))
        self.n_splits = (self.feature.size - 1) // 2  # every split has two children
        self.n_features = n_features
        self.scale = 1.0
        # predict's split masks: int8 keeps its id arithmetic in int8, bool promotes it to int64.
        self._mask_type = np.int8 if self.feature.size <= _INT8_NODES else np.bool_

    def predict(self, X) -> np.ndarray:
        """scale times the leaf value of every row, by an iterative children-first descent.

        Each split maps its rows to leaf ids with right + (left - right) *
        (column <= threshold), an exact integer select without the
        data-dependent branch of np.where; a child's array is dropped once
        its parent is built, so one array per level at most is alive. A
        leaf pair, a split whose children are leaves with ids c and c + 1
        (fit_tree numbers every pair of siblings so), selects in one op,
        (c + 1) - mask. A stump, a root whose children are such a pair,
        folds that op into the final lookup: values[c + 1], values[c] taken
        at the mask viewed as uint8, one comparison and one take. Any other
        layout, as a tree built by hand may hold, keeps the general select.
        In a tree of at most 128 nodes the ids are int8: the bool mask is
        viewed, not copied, as int8, and Python-int ids keep the arithmetic
        in one byte a row; larger trees select in int64. Column reads are
        contiguous when X is column-major, as Ensemble passes it.
        The integer ops and the take only select leaf ids, so every path
        gives the same bits: the at most 2J + 1 products scale * value are
        formed once and then taken, each the IEEE product a per-row
        multiply would give; a split's NaN is never taken.
        """
        X = as_feature_matrix(X)
        if X.shape[1] != self.n_features:
            raise ValueError(f"tree was fit on d={self.n_features}, got d={X.shape[1]}")
        feature, threshold, left, right = (a.tolist() for a in (self.feature, self.threshold, self.left, self.right))
        values = self.scale * self.value
        if feature[0] < 0:
            return np.full(X.shape[0], values[0])
        lo, hi = left[0], right[0]
        if hi == lo + 1 and feature[lo] < 0 and feature[hi] < 0:  # a stump
            return values[hi : lo - 1 : -1].take((X[:, feature[0]] <= threshold[0]).view(np.uint8))
        ids = list(range(len(feature)))
        stack = [0]
        while stack:
            node = stack.pop()
            if node >= 0:  # first visit: come back as ~node once the split children are built
                stack.append(~node)
                stack.extend(c for c in (right[node], left[node]) if feature[c] >= 0)
                continue
            node = ~node
            lo, hi = left[node], right[node]
            go_left = (X[:, feature[node]] <= threshold[node]).view(self._mask_type)
            if hi == lo + 1 and feature[lo] < 0 and feature[hi] < 0:  # a leaf pair
                ids[node] = hi - go_left
            else:
                ids[node] = (ids[lo] - ids[hi]) * go_left + ids[hi]
            ids[lo] = ids[hi] = None
        return values.take(ids[0])


class RootScan(NamedTuple):
    """The root's untied boundaries, where a root search builds its gains.

    Of the (d, m - 1) boundaries between neighbours in the column order,
    the untied ones, column by column and in position order. at and
    total_at are flat positions in a (d, m) C-contiguous cumsum, and so in
    the root's (d, m) gain matrix: boundary p of column j at j * m + p, its
    column's total at j * m + m - 1. nl and nr are the boundary's left and
    right row counts as float64, the integers p + 1 and m - p - 1. Every
    other position of the gain matrix, a tie or a column's end, reads -inf.
    """

    at: np.ndarray
    total_at: np.ndarray
    nl: np.ndarray
    nr: np.ndarray


# A root search computes gains at the untied boundaries only when at least
# this share of the root's boundaries are ties. Per root _best_split call
# (medians of 7 alternating rounds of 201 calls, ranges over rounds, on a
# shared 2-vCPU machine, numpy 2.4; 10 columns uniform on [-2, 2], rounded
# to 4, 3 or 2 decimals for ties), dense build vs untied build:
#   no ties:         2,000 rows 188-203 vs 401-426 us, 500 rows 67-94 vs 80-115 us
#   0.7% ties:       500 rows 92-99 vs 74-80 us
#   2.4% ties:       2,000 rows 243-296 vs 242-252 us
#   5.8% ties:       500 rows 96-100 vs 75-78 us
#   11% ties:        1,000 rows 146-214 vs 118-155 us
#   21% ties:        2,000 rows 289-458 vs 214-324 us
#   43% ties:        500 rows 106-109 vs 64-66 us
#   63% ties:        1,000 rows 186-271 vs 95-128 us
#   69.5% ties:      realdata_stumps' 500 x 8 learning half, 88-140 vs 51-75 us
# Each tied column costs the dense build a masked write, so the untied
# build breaks even near 2% of ties at 2,000 rows and below 1% at 500,
# not at one half, and wins from there on. No benchmark sample has a
# share between 0.0003 and 0.5, so the value stays.
_ROOT_SCAN_TIED_SHARE = 0.5


def _root_scan(tied: np.ndarray) -> RootScan:
    """The RootScan of a (d, m - 1) mask of tied root boundaries."""
    gaps = tied.shape[1]
    col, pos = np.nonzero(~tied)
    nl = (pos + 1).astype(np.float64)
    return RootScan(col * (gaps + 1) + pos, col * (gaps + 1) + gaps, nl, gaps - nl + 1.0)


class SplitCache(NamedTuple):
    """The constants of an exact split search that depend only on the features.

    Every array is read-only. xt is the features transposed, (d, m) and
    C-contiguous: one row per column. order holds the row ids of each
    column in stable ascending order, (d, m): the root's block, which tree
    fitting filters instead of sorting every node. tied holds the ids of
    the columns with some value twice; a node's rows are a subset of the
    sample's, so a column without ties has none at any node, and every
    node, the root included, masks ties only in these columns. rows is
    arange(m), the root's row ids. counts is the float64 vector
    [m - 1, ..., 1, 1, 2, ..., m]: a node of n rows has counts[m - 1:m - 1 + n],
    the integers 1..n, rows left of its prefix positions and
    counts[m - n:m], the integers n - 1..1 and a placeholder 1, right of
    them; both are contiguous slices.
    root_scan is the RootScan of the untied root boundaries when at least
    _ROOT_SCAN_TIED_SHARE of them are ties, a property of the features:
    the root then computes gains at those boundaries only and writes them
    into its (d, m) gain matrix of -inf. Otherwise it is None, and the
    root builds the matrix densely and masks ties as every node does.
    Either way one argmax over the matrix's rows picks each column's best.
    """

    xt: np.ndarray
    order: np.ndarray
    tied: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    root_scan: Optional[RootScan]


# Each sample's SplitCache, built by its first split search and dropped with the sample.
_SPLIT_CACHES = weakref.WeakKeyDictionary()


def split_cache(data: Dataset) -> SplitCache:
    """What every split search on data would otherwise re-derive (see SplitCache).

    Computed on first use and kept, since the features never change: a
    boosting run fits hundreds of trees to one sample, and a u sweep
    dozens of runs. A subset is a new Dataset with a cache of its own.
    """
    cache = _SPLIT_CACHES.get(data)
    if cache is None:
        xt = np.ascontiguousarray(data.features.T)
        order = np.ascontiguousarray(np.argsort(data.features, axis=0, kind="stable").T)
        xs = np.take_along_axis(xt, order, axis=1)
        equal = xs[:, 1:] == xs[:, :-1]
        scan = _root_scan(equal) if np.count_nonzero(equal) >= _ROOT_SCAN_TIED_SHARE * equal.size else None
        cache = _SPLIT_CACHES[data] = SplitCache(
            xt, order, np.flatnonzero(equal.any(axis=1)), np.arange(data.m),
            np.concatenate([np.arange(data.m - 1, 0, -1), np.arange(1, data.m + 1)]).astype(np.float64), scan,
        )
        for array in (*cache[:-1], *(scan or ())):
            array.setflags(write=False)
    return cache


def _untied_root_gains(scan: RootScan, csum: np.ndarray) -> np.ndarray:
    """The root's (d, m) gain matrix with a gain at every untied boundary and -inf elsewhere.

    Each gain is built from the same cumsum entries with the same
    operations in the same order as the dense scan, so it has the same
    bits; ties and column ends read -inf, as the dense scan masks them.
    """
    flat = csum.ravel()
    sl = flat.take(scan.at)
    sr = flat.take(scan.total_at)
    sr -= sl
    gain = sl * sl
    gain /= scan.nl
    sr *= sr
    sr /= scan.nr
    gain += sr
    out = np.full(csum.shape, -np.inf)
    out.ravel()[scan.at] = gain
    return out


def _best_split(cache: SplitCache, r: np.ndarray, rows: np.ndarray, block: np.ndarray):
    """Best SSE-reducing split of a node as (gain, feature, threshold, go_left), or None.

    go_left masks the node's rows at or below the threshold. cache is the
    sample's SplitCache, rows the node's row ids in increasing order and
    block its (d, n) column block: row j holds the node's rows in stable
    ascending order of feature j. The block equals a per-node stable
    argsort of X[rows] mapped back to row ids, because node rows are an
    increasing subsequence of arange(m), so filtering the dataset's column
    order keeps equal values in row order. For the same reason the root is
    the only node of m rows, and there rows is arange(m) and r[rows] is r.

    Candidate thresholds are midpoints between consecutive distinct sorted
    feature values. Each column's best boundary comes from a vectorized
    prefix-sum scan; the winners are then re-scored from the row partition
    in original row order, which makes gains of identical partitions
    bit-equal across features, so ties genuinely break toward the lower
    feature index (and, within a column, the smaller threshold).

    Every search builds one (d, n) gain matrix, a gain at every boundary
    and -inf at every tie and column end, and ends in one argmax over its
    rows: the first maximum of a row is the column's best boundary at the
    smallest threshold. A column holding a NaN gain reads NaN there and
    one holding +inf reads inf; the re-score skips both. Gains are built
    in place with the same operations in the same order as
    sl*sl/nl + sr*sr/(n - nl), so every boundary has that expression's
    bits. Most nodes build them on the whole contiguous (d, n) prefix-sum
    array: the last column is each column's end, no boundary, whose
    counts, n and 1, are placeholders; both count rows are contiguous
    slices of the cache's count vector. The end column is then set to
    -inf by one column write and, in each column that holds a tie at all,
    the boundaries between equal neighbouring values of its block. On a
    sample whose cache holds a root_scan the root computes gains at its
    untied boundaries only and writes them into a matrix of -inf (see
    _untied_root_gains). A re-scored column reads just the two values
    around its boundary.

    Only columns whose prefix-sum gain lies within ``band`` of the best one
    are re-scored. With unit roundoff u = eps/2 and S = sum |r| over the
    node, any sum of node residuals in any order is within (n-1)uS of its
    exact value (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., eq. 4.4), and every partition gain is at most S^2. To first
    order in u that bounds the error of a prefix gain by 6n*uS^2 (two
    running sums, one subtraction, five roundings) and of a re-scored gain
    by (4n+4)uS^2 (three sums, eight roundings). A column whose prefix gain
    trails the best by more than twice their sum, (10n+4)eps*S^2, has a
    re-scored gain strictly below the best column's, so it can neither win
    nor tie. The band is 16(n+2)eps*(S^2 + tiny): the factor covers the
    second-order terms, S itself being rounded and the band's own rounding;
    tiny, the smallest normal double, covers the absolute error that
    gradual underflow adds to each product and quotient (Higham eq. 2.8).
    When S^2 overflows the band is infinite and every column with a finite
    prefix gain is re-scored.
    """
    n = rows.size
    if n < 2:
        return None
    xt = cache.xt
    root = n == xt.shape[1]
    csum = r[block].cumsum(axis=1)
    if root and cache.root_scan is not None:
        gain = _untied_root_gains(cache.root_scan, csum)
    else:
        m = xt.shape[1]
        sr = csum[:, -1:] - csum
        gain = csum * csum  # node-constant offset omitted
        gain /= cache.counts[m - 1 : m - 1 + n]
        sr *= sr
        sr /= cache.counts[m - n : m]
        gain += sr
        gain[:, -1] = -np.inf  # the end column is no boundary
        for j in cache.tied.tolist():
            values = xt[j].take(block[j])
            gain[j, :-1][values[1:] == values[:-1]] = -np.inf  # a basic-slice view, so this writes gain
    best_pos = gain.argmax(axis=1)  # first max in a column = smallest threshold
    best_gain = gain[np.arange(gain.shape[0]), best_pos]
    finite = np.isfinite(best_gain)
    if not finite.any():
        return None

    r_node = r if root else r[rows]
    scale = float(np.abs(r_node).sum())
    band = _BAND_C * (n + 2) * _EPS * (scale * scale + _TINY)  # inf keeps every finite column
    finite &= best_gain >= best_gain[finite].max() - band
    total = float(r_node.sum())
    node_sse = float(np.dot(r_node, r_node) - total * total / n)
    min_gain = max(node_sse * _MIN_GAIN_REL, 0.0)
    best = None
    for feat in finite.nonzero()[0].tolist():
        pos = int(best_pos[feat])
        column = xt[feat]
        lo, hi = float(column[block[feat, pos]]), float(column[block[feat, pos + 1]])
        threshold = 0.5 * (lo + hi)  # Python floats: numpy's bits, and an overflow gives inf without a warning
        if not lo <= threshold < hi:
            threshold = lo  # midpoint rounded onto a sample value, or overflowed
        go_left = (column if root else column[rows]) <= threshold
        n_left = int(np.count_nonzero(go_left))
        # Both block sums taken directly (not total - other) so complementary
        # partitions reached from different features tie bit-exactly.
        s_left = float(r_node[go_left].sum())
        s_right = float(r_node[~go_left].sum())
        canonical = s_left * s_left / n_left + s_right * s_right / (n - n_left) - total * total / n
        if canonical <= min_gain:
            continue
        if best is None or canonical > best[0]:
            best = (canonical, feat, threshold, go_left)
    return best


def _partition(block: np.ndarray, go_left: np.ndarray):
    """The column blocks of a split node's children, left then right.

    go_left is a bool mask over the sample's row ids, the split column's m
    values compared once; gathered over the (d, n) block it is one byte a
    position, and each child keeps block's positions where it is True
    (left) or False (right), so every row stays in sorted order. Blocks are
    C-contiguous, so both ravels are views.
    """
    to_left = go_left[block].ravel()
    flat = block.ravel()
    return flat.compress(to_left).reshape(block.shape[0], -1), flat.compress(~to_left).reshape(block.shape[0], -1)


def _routed_mean(values: np.ndarray) -> float:
    # Summing in sorted order makes leaf values independent of row order.
    # One pairwise sum and one division, as core.inner takes a mean.
    ordered = np.sort(values)
    return float(ordered.sum() / ordered.size)


def fit_tree(data: Dataset, residual, n_splits: int, *, out=None) -> RegressionTree:
    """Grow a least-squares CART tree on the residual, best-first, up to n_splits.

    Growth order is by SSE reduction; frontier ties fall back to node id,
    which is creation order. A constant residual yields a single leaf at
    its mean. Fitting is invariant to row permutations when per-column
    feature values are distinct (the generic case for continuous data).

    Split search runs on column blocks: the stable column order in
    split_cache(data) is the root's block, and a split filters its node's
    block through a one-byte mask, the split column's m values compared
    once and gathered over the block (see _partition); that keeps each
    column sorted without sorting again (see _best_split). Children of
    the last split in the budget are not searched, so a tree costs at most
    2 * n_splits - 1 searches. The transposed features, tied column ids and
    count vectors every search reads come from the same cache, built by
    the sample's first fit and only read after that.

    The search reads r scaled by a power of two to a largest |r| in
    [0.5, 1). The scaling is exact and keeps the gains from overflowing or
    underflowing at extreme scales of r: r and 2^s * r are searched on the
    same array. Leaf values are means of the unscaled r, taken once the
    tree is grown and for leaves only; a split's value is NaN. A residual
    holding a NaN or an infinity has no finite gain at any boundary, since
    every boundary has the value on one side, so its tree is one leaf and
    is grown without a search.

    With out, a float64 array of length m, each leaf's value is also
    written into the rows of its leaf: the in-sample prediction, the same
    values in the same rows as tree.predict(data.features), since both
    route a row by the same comparisons of the same feature values.

    n_splits must be an integer >= 1 (an integral float is used as an int).
    """
    n_splits = positive_int(n_splits, "n_splits")
    r = np.ascontiguousarray(residual, dtype=np.float64)
    if r.shape != (data.m,):
        raise ValueError(f"residual must have length m={data.m}, got shape {r.shape}")
    peak = float(np.abs(r).max())
    searched = np.ldexp(r, -math.frexp(peak)[1]) if peak > 0 else r
    cache = split_cache(data)
    xt = cache.xt
    nodes = [_leaf(np.nan)]
    leaves = {0: cache.rows}  # node id -> rows, open leaves only
    frontier = []

    def push(node, block):
        cand = _best_split(cache, searched, leaves[node], block)
        if cand is not None:  # ids are unique and pushed in increasing order, so they break gain ties
            heapq.heappush(frontier, (-cand[0], node, block, cand))

    if math.isfinite(peak):  # else every boundary has a non-finite sum on one side: no finite gain
        push(0, cache.order)
    while frontier:
        _, node, block, (_, feat, threshold, go_left) = heapq.heappop(frontier)
        rows = leaves.pop(node)
        left_id = len(nodes)
        nodes[node][:4] = feat, threshold, left_id, left_id + 1
        nodes += [_leaf(np.nan), _leaf(np.nan)]
        leaves[left_id], leaves[left_id + 1] = rows.compress(go_left), rows.compress(~go_left)
        if len(nodes) == 2 * n_splits + 1:
            break  # budget spent; the frontier is discarded, so the children need no search
        left_block, right_block = _partition(block, xt[feat] <= threshold)
        push(left_id, left_block)
        push(left_id + 1, right_block)
    for node, rows in leaves.items():  # disjoint rows, so the order is free
        value = nodes[node][4] = _routed_mean(r[rows])
        if out is not None:
            out[rows] = value
    return RegressionTree(*zip(*nodes), data.d)


@dataclass(frozen=True)
class TreeLearnerSpec:
    """Weak-learner factory: CART trees with a fixed split budget."""

    n_splits: int = 4

    def __post_init__(self):
        object.__setattr__(self, "n_splits", positive_int(self.n_splits, "n_splits"))

    def bind(self, data: Dataset) -> "_TreeFitter":
        return _TreeFitter(data, self.n_splits)


class _TreeFitter:
    def __init__(self, data: Dataset, n_splits: int):
        self._data = data
        self._n_splits = n_splits
        # Tree norms scale with the targets, so the floor does too.
        self._floor = DEGENERATE_NORM * empirical_norm(data.targets)

    def fit_step(self, residual):
        """(tree, g) of one unit-norm tree fit to the residual; None when degenerate.

        The tree keeps its leaf means and carries scale = 1 / nrm, nrm its
        empirical norm on the bound sample; g is its in-sample prediction
        divided by nrm. (tree.predict multiplies by 1 / nrm instead, which
        can differ from g in the last bit.) A tree is degenerate when nrm
        is at most DEGENERATE_NORM * rms(y) of the bound sample's targets.
        """
        pred = np.empty(self._data.m)
        tree = fit_tree(self._data, residual, self._n_splits, out=pred)
        nrm = math.sqrt(inner(pred, pred))
        if nrm <= self._floor:
            return None
        tree.scale = 1.0 / nrm
        return tree, pred / nrm
