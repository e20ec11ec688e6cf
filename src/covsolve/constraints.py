"""Half-space constraints in local spaces: transformation and clipping.

A constraint (n, b, P) holds at u when P(n . u - b, 0) is true.  Each
non-equality prefix predicate becomes one half-space in root coordinates:
its normal is the predicate's unit gradient axis and b is where the
linearised function crosses zero along it.  Projecting the normal onto a
space's lifted basis rows, which are orthonormal, restricts the half-space
to that space with the same bound, so one projection carries a constraint
into the last local space.  There each constraint also gets the direction
that clipping's first round moves along: the part of its normal orthogonal
to the last function's gradient, fixed for the whole iteration.  The
solver's pattern and grad-step candidates are pushed into the feasible
region by iterated projection (clipping), one vector at a time by ``clip``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    Clipping's first round moves along ``direction``, later rounds along the normal.
    """

    normal: np.ndarray
    bound: float
    comp: Comparator
    direction: np.ndarray

    def __post_init__(self):
        if not self.comp.side:  # no half-space holds an equality, and no shift has a side
            raise ValueError("EQ constraints are never constructed")


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
    if float(dot(m, m)) < DIVISION_GUARD:
        return None
    w, ww, scale = rescaled(grad)
    direction = m - (float(dot(m, w)) / (scale * ww)) * grad if ww > 0.0 else m
    return Constraint(m, constraint.bound, constraint.comp, direction)


def clip(u: np.ndarray, constraints: ConstraintSet) -> np.ndarray:
    """Project ``u`` into the constraint region, at most ``CLIP_ROUNDS`` times over.

    A round tests each constraint once, at u as it stands, and a round that
    finds none violated ends clipping.  Each violated constraint moves u
    along a direction m by u += relax * ((b - n . u) / (n . m) + h(P)) * m,
    which with relax = 1 lands exactly on its boundary, shifted by
    h(P) = epsilon toward the comparator's side for strict comparators.
    The first round uses relax = 1 and the constraint's own direction;
    later rounds over-relax along the normal n (the tangent direction
    converges poorly), overshooting the boundary, which turns the
    asymptotic zig-zag between acute constraint pairs into convergence
    within the round limit.  The result may still violate the set if it
    is empty or concave; callers tolerate that.  Runs under ``solve``'s
    float policy, as ``satisfies`` does.
    """
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
            nn = float(dot(n, n))
            coord = nu / nn if nn >= DIVISION_GUARD else 0.0
            if not math.isfinite(coord):
                continue
            m = c.direction if round_no == 0 else n
            nm = float(dot(n, m))
            if abs(nm) < DIVISION_GUARD:
                continue
            shift = c.comp.side * epsilon_from_value(coord) if c.comp.strict else 0.0
            u = u + relax * (-residual / nm + shift) * m
            # rounding can leave the projection an ulp outside; one epsilon-sized
            # push along the normal, toward the side, dominates that noise
            nu = float(dot(n, u))
            if math.isfinite(residual := nu - c.bound) and c.comp.holds(residual):
                continue
            if nn >= DIVISION_GUARD and math.isfinite(coord := nu / nn):
                u = u + c.comp.side * epsilon_from_value(coord) * n
        if not violated:
            break
    return u

