"""Checks shared by several test modules."""

import math

import numpy as np

from covsolve.localspace import BasisChain, dot, rescaled
from covsolve.numerics import NoStepError, _min_coordinate_step
from covsolve.vecspace import ExtractionError, Valuation, embed, extract, round_vector


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


def bits_key(values) -> tuple:
    """The candidate loop's repeat key as it was: each float by ``hex``, so -0.0 and 0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def dense_step(origin: Valuation, point: np.ndarray, row: np.ndarray) -> Valuation:
    """A finite-difference step as the dense oracles take it: ``point`` extracted whole,
    then ``origin``'s own value wherever ``row`` is zero.

    Raises ``ExtractionError`` where ``extract`` does.
    """
    stepped = extract(point, origin.signature).values
    return Valuation(origin.signature, tuple(
        kept if g == 0.0 else moved
        for kept, moved, g in zip(origin.values, stepped, row.tolist())))


def dense_epsilon_along_line(origin: Valuation, direction: np.ndarray, eps1: float) -> float:
    """``epsilon_along_line`` as it was when its origin was an array and every
    sample rounded every coordinate."""
    types, vec = origin.signature.types, embed(origin)
    direction = np.asarray(direction, dtype=np.float64)
    w, ww, scale = rescaled(direction)
    if ww == 0.0:
        raise ValueError("line direction must be nonzero")
    if not math.isfinite(ww):
        raise ValueError("line direction is not finite")
    if eps1 <= 0.0:
        raise ValueError("initial epsilon must be positive")

    with np.errstate(over="ignore", invalid="ignore"):
        point = vec + eps1 * direction
        for _ in range(2 * vec.shape[0]):
            try:
                rounded = np.array(round_vector(point, types))
            except ExtractionError:
                break
            if not np.array_equal(rounded, vec):
                eps = float(dot(point - vec, w)) / (scale * ww)
                if math.isfinite(eps * scale * math.sqrt(ww)):
                    return eps
                break
            increment = _min_coordinate_step(rounded, direction, types)
            if increment is None or increment <= 0.0 or not math.isfinite(increment):
                break
            point = point + increment * direction

    raise NoStepError("no sample along the line changes the rounded vector")
