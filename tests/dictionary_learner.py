"""An explicit-dictionary weak learner for the tests: the argmax over atoms, done literally.

train only needs a learner spec with bind(data), whose fitter's
fit_step(residual) returns a unit-norm learner and its values on the
sample, or None. Trees make that step by least-squares fitting, the
tractable stand-in for an argmax over the implicit tree dictionary; this
learner takes the argmax over a fixed, explicit set of atoms, so the tests
can check the training loops against an exact greedy step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from rboost.core import Dataset, as_feature_matrix, empirical_norm
from rboost.learners import DEGENERATE_NORM, NormalizedLearner


class DegenerateLearnerError(Exception):
    """Raised when every atom of a dictionary has ~zero norm on the fitting sample."""


@dataclass(frozen=True)
class DictionaryAtom:
    """A fixed candidate function; fn maps an (n, d) feature matrix to (n,) values."""

    atom_id: int
    fn: Callable[[np.ndarray], np.ndarray]

    def predict(self, X) -> np.ndarray:
        return np.asarray(self.fn(as_feature_matrix(X)), dtype=np.float64)


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
