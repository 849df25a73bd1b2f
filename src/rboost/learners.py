"""Weak learners: CART regression trees, decision stumps and explicit dictionaries.

The gradient-projection step of the training loops needs, per iteration, a
unit-empirical-norm function aligned with the current residual. Trees get
there by least-squares fitting to the residual followed by normalization
(for unit-norm g, minimizing ||r - <r,g> g|| is the same as maximizing
|<r,g>|, so the fit is the tractable stand-in for an argmax over an
implicit tree dictionary). Explicit dictionaries do the argmax literally.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Dataset, as_feature_matrix, empirical_norm

# Below this empirical norm a fitted learner is useless as a direction.
DEGENERATE_NORM = 1e-12

# A split must reduce node SSE by more than this relative amount, which
# keeps constant-residual nodes unsplit despite summation round-off.
_MIN_GAIN_REL = 1e-12

# Near-tie re-score band of the split search: _BAND_C * (n+2) * eps * (S^2 + tiny).
_BAND_C = 16.0
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


class DegenerateLearnerError(Exception):
    """Raised when every atom of a dictionary has ~zero norm on the fitting sample."""


def _leaf(value: float) -> list:
    return [-1, 0.0, -1, -1, value]  # feature, threshold, left, right, value


class RegressionTree:
    """Axis-aligned binary regression tree stored as flat parallel arrays.

    Node 0 is the root and children come after their parent. Node i is a
    split when feature[i] >= 0: x goes to left[i] iff x[feature[i]] <=
    threshold[i], else to right[i]. Leaves have feature, left and right -1
    and hold the mean of the fitting targets routed to them in value; a
    split's value is its own mean when grown by fit_tree and NaN when read
    from a v1 dict, which does not store it. The achieved split count can
    fall short of the budget when the data has no further SSE-reducing split.
    """

    def __init__(self, feature, threshold, left, right, value, n_features: int):
        self.feature, self.left, self.right = (np.array(a, dtype=np.int64) for a in (feature, left, right))
        self.threshold, self.value = (np.array(a, dtype=np.float64) for a in (threshold, value))
        self.n_splits = (self.feature.size - 1) // 2  # every split has two children
        self.n_features = n_features

    def predict(self, X) -> np.ndarray:
        """Leaf value of every row, by an iterative children-first descent.

        Each split maps its rows to leaf ids with right + (left - right) *
        (column <= threshold), an exact integer select without the
        data-dependent branch of np.where; a child's array is dropped once
        its parent is built, so one array per level at most is alive. Column
        reads are contiguous when X is column-major, as Ensemble passes it.
        """
        X = as_feature_matrix(X)
        if X.shape[1] != self.n_features:
            raise ValueError(f"tree was fit on d={self.n_features}, got d={X.shape[1]}")
        feature, threshold, left, right = (a.tolist() for a in (self.feature, self.threshold, self.left, self.right))
        if feature[0] < 0:
            return np.full(X.shape[0], self.value[0])
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
            ids[node] = (ids[lo] - ids[hi]) * (X[:, feature[node]] <= threshold[node]) + ids[hi]
            ids[lo] = ids[hi] = None
        return self.value.take(ids[0])

    def depth(self) -> int:
        """Length of the longest root-to-leaf path; 0 for a single leaf."""
        depths = [0] * self.feature.size
        for node in np.flatnonzero(self.feature >= 0).tolist():  # parents come first
            depths[self.left[node]] = depths[self.right[node]] = depths[node] + 1
        return max(depths)

    def to_dict(self) -> dict:
        """The v1 nested form: {"value"} leaves, {"feature", "threshold", "left", "right"} splits."""
        feature, threshold, left, right, value = (
            a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.value)
        )
        nodes = [{"value": v} if f < 0 else {"feature": f, "threshold": t}
                 for f, t, v in zip(feature, threshold, value)]
        for node in np.flatnonzero(self.feature >= 0).tolist():
            nodes[node]["left"], nodes[node]["right"] = nodes[left[node]], nodes[right[node]]
        return {"n_splits": self.n_splits, "n_features": self.n_features, "root": nodes[0]}

    @staticmethod
    def from_dict(spec: dict) -> "RegressionTree":
        """Inverse of to_dict; nodes are numbered in pre-order."""
        n_features = int(spec["n_features"])
        nodes = []
        stack = [(spec["root"], None)]  # (node spec, (parent id, its left/right column))
        while stack:
            node, link = stack.pop()
            if link is not None:
                nodes[link[0]][link[1]] = len(nodes)
            if "value" in node:
                nodes.append(_leaf(float(node["value"])))
                continue
            feature = int(node["feature"])
            if not 0 <= feature < n_features:
                raise ValueError(f"split on feature {feature}, outside the tree's {n_features} features")
            nodes.append([feature, float(node["threshold"]), -1, -1, np.nan])
            stack += [(node["right"], (len(nodes) - 1, 3)), (node["left"], (len(nodes) - 1, 2))]
        return RegressionTree(*zip(*nodes), n_features)


def _best_split(xt: np.ndarray, r: np.ndarray, rows: np.ndarray, block: np.ndarray):
    """Best SSE-reducing split of a node as (gain, feature, threshold, go_left), or None.

    go_left masks the node's rows at or below the threshold. xt is the
    (d, m) transposed feature matrix, rows the node's row ids in increasing
    order and block its (d, n) column block: row j holds the node's rows
    in stable ascending order of feature j. The block equals a
    per-node stable argsort of X[rows] mapped back to row ids, because node
    rows are an increasing subsequence of arange(m), so filtering the
    dataset's column order keeps equal values in row order.

    Candidate thresholds are midpoints between consecutive distinct sorted
    feature values. Each column's best boundary comes from a vectorized
    prefix-sum scan; the winners are then re-scored from the row partition
    in original row order, which makes gains of identical partitions
    bit-equal across features, so ties genuinely break toward the lower
    feature index (and, within a column, the smaller threshold).

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
    d, m = xt.shape
    xs = xt.ravel()[block + np.arange(0, d * m, m)[:, None]]  # xs[j] = xt[j, block[j]]
    csum = np.cumsum(r[block], axis=1)
    nl = np.arange(1, n, dtype=np.float64)
    sl = csum[:, :-1]
    sr = csum[:, -1:] - sl
    gain = sl * sl / nl + sr * sr / (n - nl)  # node-constant offset omitted
    gain[xs[:, 1:] == xs[:, :-1]] = -np.inf
    best_pos = np.argmax(gain, axis=1)  # first max in a column = smallest threshold
    best_gain = gain[np.arange(d), best_pos]
    finite = np.isfinite(best_gain)
    if not finite.any():
        return None

    r_node = r[rows]
    scale = float(np.abs(r_node).sum())
    band = _BAND_C * (n + 2) * _EPS * (scale * scale + _TINY)  # inf keeps every finite column
    finite &= best_gain >= best_gain[finite].max() - band
    total = float(r_node.sum())
    node_sse = float(np.dot(r_node, r_node) - total * total / n)
    min_gain = max(node_sse * _MIN_GAIN_REL, 0.0)
    best = None
    for feat in finite.nonzero()[0].tolist():
        pos = int(best_pos[feat])
        threshold = 0.5 * (xs[feat, pos] + xs[feat, pos + 1])
        if not xs[feat, pos] <= threshold < xs[feat, pos + 1]:
            threshold = float(xs[feat, pos])  # midpoint rounded onto a sample value
        go_left = xt[feat, rows] <= threshold
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


def _routed_mean(values: np.ndarray) -> float:
    # Summing in sorted order makes leaf values independent of row order.
    # Same bits as np.mean (one pairwise sum, one division) without its overhead.
    ordered = np.sort(values)
    return float(ordered.sum() / ordered.size)


def fit_tree(data: Dataset, residual, n_splits: int) -> RegressionTree:
    """Grow a least-squares CART tree on the residual, best-first, up to n_splits.

    Growth order is by SSE reduction; frontier ties fall back to creation
    order. A constant residual yields a single leaf at its mean. Fitting is
    invariant to row permutations when per-column feature values are
    distinct (the generic case for continuous data).

    Split search runs on column blocks: the dataset's cached stable column
    order is the root's block, and a split filters its node's block with
    the winning row mask, which keeps each column sorted without sorting
    again (see _best_split). Children of the last split in the budget are
    not searched, so a tree costs at most 2 * n_splits - 1 searches.
    """
    if n_splits < 1:
        raise ValueError(f"n_splits must be >= 1, got {n_splits}")
    r = np.asarray(residual, dtype=np.float64)
    if r.shape != (data.m,):
        raise ValueError(f"residual must have length m={data.m}, got shape {r.shape}")
    xt = np.ascontiguousarray(data.features.T)
    nodes = [_leaf(_routed_mean(r))]
    frontier = []
    created = itertools.count()

    def push(node, rows, block):
        cand = _best_split(xt, r, rows, block)
        if cand is not None:
            heapq.heappush(frontier, (-cand[0], next(created), node, rows, block, cand))

    push(0, np.arange(data.m), data.column_order)
    while frontier:
        _, _, node, rows, block, (_, feat, threshold, go_left) = heapq.heappop(frontier)
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        left_id = len(nodes)
        nodes[node][:4] = feat, threshold, left_id, left_id + 1
        nodes += [_leaf(_routed_mean(r[left_rows])), _leaf(_routed_mean(r[right_rows]))]
        if len(nodes) == 2 * n_splits + 1:
            break  # budget spent; the frontier is discarded, so the children need no search
        to_left = xt[feat][block] <= threshold
        push(left_id, left_rows, block[to_left].reshape(block.shape[0], left_rows.size))
        push(left_id + 1, right_rows, block[~to_left].reshape(block.shape[0], right_rows.size))
    return RegressionTree(*zip(*nodes), data.d)


@dataclass(frozen=True)
class NormalizedLearner:
    """A learner rescaled to unit empirical norm on its fitting sample."""

    base: object
    scale: float

    def predict(self, X) -> np.ndarray:
        return self.scale * self.base.predict(X)


@dataclass(frozen=True)
class DictionaryAtom:
    """A fixed candidate function; fn maps an (n, d) feature matrix to (n,) values."""

    atom_id: int
    fn: Callable[[np.ndarray], np.ndarray]

    def predict(self, X) -> np.ndarray:
        return np.asarray(self.fn(as_feature_matrix(X)), dtype=np.float64)


@dataclass(frozen=True)
class TreeLearnerSpec:
    """Weak-learner factory: CART trees with a fixed split budget."""

    n_splits: int = 4

    def __post_init__(self):
        if self.n_splits < 1:
            raise ValueError(f"n_splits must be >= 1, got {self.n_splits}")

    def bind(self, data: Dataset) -> "_TreeFitter":
        return _TreeFitter(data, self.n_splits)


class _TreeFitter:
    def __init__(self, data: Dataset, n_splits: int):
        self._data = data
        self._n_splits = n_splits

    def fit_step(self, residual):
        """Fit one unit-norm tree to the residual; None when degenerate."""
        tree = fit_tree(self._data, residual, self._n_splits)
        pred = tree.predict(self._data.features)
        nrm = empirical_norm(pred)
        if nrm <= DEGENERATE_NORM:
            return None
        return NormalizedLearner(tree, 1.0 / nrm), pred / nrm


@dataclass(frozen=True)
class DictionaryLearnerSpec:
    """Weak-learner factory: argmax selection from a fixed set of atoms."""

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("dictionary is empty")

    def bind(self, data: Dataset) -> "_DictionaryFitter":
        return _DictionaryFitter(self.atoms, data)


class _DictionaryFitter:
    def __init__(self, atoms: Sequence[DictionaryAtom], data: Dataset):
        learners = []
        values = []
        ids = []
        for atom in atoms:
            pred = atom.predict(data.features)
            nrm = empirical_norm(pred)
            if nrm <= DEGENERATE_NORM:
                continue  # zero on this sample; can never carry signal
            learners.append(NormalizedLearner(atom, 1.0 / nrm))
            values.append(pred / nrm)
            ids.append(atom.atom_id)
        if not learners:
            raise DegenerateLearnerError("every atom has ~zero norm on the sample")
        self._learners = learners
        self._values = np.asarray(values)
        self._ids = ids
        self._m = data.m

    def fit_step(self, residual):
        """Pick the unit-norm atom most aligned with the residual; None if all orthogonal."""
        r = np.asarray(residual, dtype=np.float64)
        inners = self._values @ r / self._m
        best = min(range(len(self._learners)), key=lambda i: (-abs(inners[i]), self._ids[i]))
        if inners[best] == 0.0:
            return None
        return self._learners[best], self._values[best]
