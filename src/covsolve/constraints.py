"""Half-space constraints in local spaces: transformation and clipping.

A constraint (n, b, P) holds at u when P(n . u - b, 0) is true.  Each
non-equality prefix predicate becomes one half-space in root coordinates,
and one projection carries it into the last local space with the same
bound (README.md, step 2 of the search).  ``clip`` pushes a vector into
the region by iterated projection; a point a projection leaves outside,
as on a strict comparator's boundary, is pushed one epsilon inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .localspace import dot, rescaled
from .numerics import epsilon_from_value
from .vecspace import Comparator

#: Projections divide by these dot products; smaller magnitudes are skipped.
DIVISION_GUARD = 1e-12

#: Bound on clipping rounds.
CLIP_ROUNDS = 10

#: Over-relaxation factor for rounds after the first.  Plain boundary
#: projections only converge asymptotically in narrow wedges (inward
#: normals at obtuse angles); overshooting the boundary reaches the
#: feasible region within the round limit.
RELAXATION = 1.8


@dataclass(frozen=True)
class Constraint:
    """Half-space (or hyperplane complement) ``comp.holds(normal . u - bound)``.

    Clipping's first round moves along ``direction``, later rounds along the
    normal; ``nn`` and ``nd``, the normal's products with itself and with
    ``direction``, are taken once, at their first use.
    """

    normal: np.ndarray
    bound: float
    comp: Comparator
    direction: np.ndarray

    def __post_init__(self):
        if not self.comp.side:  # no half-space holds an equality, and no shift has a side
            raise ValueError("EQ constraints are never constructed")

    @cached_property
    def nn(self) -> float:
        return float(dot(self.normal, self.normal))

    @cached_property
    def nd(self) -> float:
        return float(dot(self.normal, self.direction))


ConstraintSet = Sequence[Constraint]


def satisfies(u: np.ndarray, constraint: Constraint) -> bool:
    """Whether ``u`` lies in the constraint's admissible region.

    Vectors whose residual is not finite (overflowed candidates) satisfy
    nothing; they are reported as violations rather than errors.  Runs under
    ``solve``'s float policy: called alone, it warns on overflow as numpy does.
    """
    residual = float(dot(constraint.normal, u) - constraint.bound)
    return math.isfinite(residual) and constraint.comp.holds(residual)


def satisfies_all(u: np.ndarray, constraints: ConstraintSet) -> bool:
    """True when the set is empty or every member holds."""
    return all(satisfies(u, c) for c in constraints)


def transform_constraint(constraint: Constraint, rows: np.ndarray,
                         grad: np.ndarray) -> Constraint | None:
    """Restrict a root-space constraint to the space of ``rows``, with ``grad`` there.

    The rows are orthonormal and in root coordinates, so a local vector u
    lifts to ``rows.T @ u`` and n . (rows.T @ u) = (rows @ n) . u: the
    normal is projected and the bound carries over unchanged.  When the
    normal is orthogonal to the whole space the constraint cannot be
    expressed there and None is returned.  The direction is the projected
    normal's part orthogonal to the gradient, which moves a candidate
    without changing the linearised last function, or the normal itself
    when the gradient is zero.  Runs under ``solve``'s float policy.
    """
    m = dot(rows, constraint.normal)
    w, ww, scale = rescaled(grad)
    direction = m - (float(dot(m, w)) / (scale * ww)) * grad if ww > 0.0 else m
    moved = Constraint(m, constraint.bound, constraint.comp, direction)
    return None if moved.nn < DIVISION_GUARD else moved


def clip(u: np.ndarray, constraints: ConstraintSet) -> np.ndarray:
    """Project ``u`` into the constraint region, at most ``CLIP_ROUNDS`` times over.

    A round tests each constraint once, at u as it stands, and a round that
    finds none violated ends clipping.  Each violated constraint moves u
    along a direction m by u += relax * ((b - n . u) / (n . m)) * m, which
    with relax = 1 lands exactly on its boundary.  A point the move leaves
    outside, as it leaves every boundary point of a strict comparator and
    some others by an ulp of rounding, is pushed by one epsilon along n
    toward the comparator's side.  The first round uses relax = 1 and the
    constraint's own direction; later rounds over-relax along the normal n
    by ``RELAXATION``.  The result may still violate the set if it is empty
    or concave; callers tolerate that.  Runs under ``solve``'s float
    policy, as ``satisfies`` does.  An empty set returns ``u`` as it is, as
    a float array.
    """
    if not constraints:
        return np.asarray(u, dtype=np.float64)
    u = np.array(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        return u  # nothing meaningful to project; callers filter these out
    for round_no in range(CLIP_ROUNDS):
        relax = 1.0 if round_no == 0 else RELAXATION
        violated = False
        for c in constraints:
            n = c.normal
            nu = float(dot(n, u))
            if math.isfinite(residual := nu - c.bound) and c.comp.holds(residual):
                continue
            violated = True
            nn = c.nn
            coord = nu / nn if nn >= DIVISION_GUARD else 0.0
            if not math.isfinite(coord):
                continue
            m, nm = (c.direction, c.nd) if round_no == 0 else (n, nn)
            if abs(nm) < DIVISION_GUARD:
                continue
            u = u + relax * (-residual / nm) * m
            # a strict comparator's projection lands on the boundary, and rounding can
            # leave any an ulp outside; one epsilon-sized push along the normal, toward
            # the side, makes it hold
            nu = float(dot(n, u))
            if math.isfinite(residual := nu - c.bound) and c.comp.holds(residual):
                continue
            if nn >= DIVISION_GUARD and math.isfinite(coord := nu / nn):
                u = u + c.comp.side * epsilon_from_value(coord) * n
        if not violated:
            break
    return u

