"""Checks shared by several test modules."""

import numpy as np

from covsolve.localspace import BasisChain
from covsolve.vecspace import Valuation, extract


def orthonormality_error(vectors: np.ndarray) -> float:
    """Largest deviation of the rows from pairwise orthonormality."""
    if vectors.shape[0] == 0:
        return 0.0
    gram = vectors @ vectors.T
    return float(np.max(np.abs(gram - np.eye(vectors.shape[0]))))


def record_levels(monkeypatch) -> list:
    """The root-space rows of every level, level 1 first, of the chain built last.

    A ``BasisChain`` keeps only its current level, so a test that reads the
    earlier ones records each as it is built.  The list fills as chains are
    built after this call.
    """
    levels = []
    init, extend = BasisChain.__init__, BasisChain.extend

    def recording_init(self, dim):
        init(self, dim)
        levels[:] = [self.rows]

    def recording_extend(self, basis):
        out = extend(self, basis)
        levels.append(self.rows)
        return out

    monkeypatch.setattr(BasisChain, "__init__", recording_init)
    monkeypatch.setattr(BasisChain, "extend", recording_extend)
    return levels


def dense_step(origin: Valuation, point: np.ndarray, row: np.ndarray) -> Valuation:
    """A finite-difference step as the dense oracles take it: ``point`` extracted whole,
    then ``origin``'s own value wherever ``row`` is zero.

    Raises ``ExtractionError`` where ``extract`` does.
    """
    stepped = extract(point, origin.signature).values
    return Valuation(origin.signature, tuple(
        kept if g == 0.0 else moved
        for kept, moved, g in zip(origin.values, stepped, row.tolist())))
