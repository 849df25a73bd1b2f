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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, RootScan, SplitCache, as_feature_matrix, empirical_norm, positive_int

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
        its parent is built, so one array per level at most is alive. In a
        tree of at most 128 nodes the ids are int8: the bool mask is viewed,
        not copied, as int8, and Python-int ids keep the arithmetic in one
        byte a row; larger trees select in int64. Column reads are
        contiguous when X is column-major, as Ensemble passes it. The at
        most 2J + 1 products scale * value are formed once and then taken,
        each the IEEE product a per-row multiply would give; a split's NaN
        is never taken.
        """
        X = as_feature_matrix(X)
        if X.shape[1] != self.n_features:
            raise ValueError(f"tree was fit on d={self.n_features}, got d={X.shape[1]}")
        feature, threshold, left, right = (a.tolist() for a in (self.feature, self.threshold, self.left, self.right))
        values = self.scale * self.value
        if feature[0] < 0:
            return np.full(X.shape[0], values[0])
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
            ids[node] = (ids[lo] - ids[hi]) * go_left + ids[hi]
            ids[lo] = ids[hi] = None
        return values.take(ids[0])


def _untied_root_scan(scan: RootScan, csum: np.ndarray, n: int):
    """Best gain and position of every column at the root from its untied boundaries only.

    Each gain is built from the same cumsum entries with the same
    operations in the same order as the dense scan, so it has the same
    bits. A column's best is its segment's maximum, which is NaN when any
    of its gains is, and its position the first boundary reaching it, the
    smallest threshold: the dense argmax over gains whose ties are -inf.
    A column without untied boundaries gets -inf.
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
    seg_best = np.maximum.reduceat(gain, scan.starts)
    best_gain = np.full(csum.shape[0], -np.inf)
    best_gain[scan.live] = seg_best
    best_pos = np.zeros(csum.shape[0], dtype=np.intp)
    best_pos[scan.live] = np.minimum.reduceat(np.where(gain == seg_best[scan.seg], scan.pos, n), scan.starts)
    return best_gain, best_pos


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

    The scan builds gains on the whole contiguous (d, n) prefix-sum array,
    in place and with the same operations in the same order as
    sl*sl/nl + sr*sr/(n - nl), so every boundary has that expression's
    bits. The last column is each column's end, no boundary: its counts,
    n and 1, are placeholders, and its gain is set to -inf before the
    argmax. Both count rows are contiguous slices of the cache's count
    vector. Every node, the root included, masks its boundaries by one
    rule: the end column by one column write, then, in each column that
    holds a tie at all, the boundaries between equal neighbouring values
    of its block; a re-scored column reads just the two values around its
    boundary. On a sample whose cache holds a root_scan the root builds
    gains at its untied boundaries only (see _untied_root_scan), with the
    same winner per column.

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
        best_gain, best_pos = _untied_root_scan(cache.root_scan, csum, n)
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
        lo, hi = column[block[feat, pos]], column[block[feat, pos + 1]]
        threshold = 0.5 * (lo + hi)
        if not lo <= threshold < hi:
            threshold = lo  # midpoint rounded onto a sample value
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
            best = (canonical, feat, float(threshold), go_left)
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
    # Same bits as np.mean (one pairwise sum, one division) without its overhead.
    ordered = np.sort(values)
    return float(ordered.sum() / ordered.size)


def fit_tree(data: Dataset, residual, n_splits: int, *, out=None) -> RegressionTree:
    """Grow a least-squares CART tree on the residual, best-first, up to n_splits.

    Growth order is by SSE reduction; frontier ties fall back to creation
    order. A constant residual yields a single leaf at its mean. Fitting is
    invariant to row permutations when per-column feature values are
    distinct (the generic case for continuous data).

    Split search runs on column blocks: the stable column order in
    data.split_cache is the root's block, and a split filters its node's
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
    cache = data.split_cache
    xt = cache.xt
    nodes = [_leaf(np.nan)]
    node_rows = [cache.rows]  # a leaf's rows; None once it splits
    frontier = []
    created = itertools.count()

    def push(node, rows, block):
        cand = _best_split(cache, searched, rows, block)
        if cand is not None:
            heapq.heappush(frontier, (-cand[0], next(created), node, rows, block, cand))

    if math.isfinite(peak):  # else every boundary has a non-finite sum on one side: no finite gain
        push(0, cache.rows, cache.order)
    while frontier:
        _, _, node, rows, block, (_, feat, threshold, go_left) = heapq.heappop(frontier)
        left_rows = rows.compress(go_left)
        right_rows = rows.compress(~go_left)
        left_id = len(nodes)
        nodes[node][:4] = feat, threshold, left_id, left_id + 1
        nodes += [_leaf(np.nan), _leaf(np.nan)]
        node_rows[node] = None
        node_rows += [left_rows, right_rows]
        if len(nodes) == 2 * n_splits + 1:
            break  # budget spent; the frontier is discarded, so the children need no search
        left_block, right_block = _partition(block, xt[feat] <= threshold)
        push(left_id, left_rows, left_block)
        push(left_id + 1, right_rows, right_block)
    for node, rows in enumerate(node_rows):
        if rows is not None:
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
        nrm = float(np.sqrt((pred * pred).sum() / self._data.m))  # empirical_norm's bits, without its checks
        if nrm <= self._floor:
            return None
        tree.scale = 1.0 / nrm
        return tree, pred / nrm
