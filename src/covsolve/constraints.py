"""Half-space constraints in local spaces: transformation and clipping.

A constraint (n, b, P) holds at u when P(n . u - b, 0) is true.  Each
non-equality prefix predicate becomes one half-space in root coordinates:
its normal is the predicate's unit gradient axis and b is where the
linearised function crosses zero along it.  Projecting the normal onto a
space's lifted basis rows, which are orthonormal, restricts the half-space
to that space with the same bound, so one projection carries a constraint
into the last local space.  Candidate vectors are pushed into the feasible
region by iterated projection (clipping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import epsilon_from_value
from .vecspace import Comparator

#: Projections divide by these dot products; smaller magnitudes are skipped.
DIVISION_GUARD = 1e-12

#: Default bound on clipping rounds.
CLIP_ROUNDS = 10

#: Over-relaxation factor for rounds after the first.  Plain boundary
#: projections only converge asymptotically in narrow wedges (inward
#: normals at obtuse angles); overshooting the boundary reaches the
#: feasible region within the round limit.
RELAXATION = 1.8


@dataclass(frozen=True)
class Constraint:
    """Half-space (or hyperplane complement) ``comp.holds(normal . u - bound)``."""

    normal: np.ndarray
    bound: float
    comp: Comparator

    def __post_init__(self):
        if self.comp is Comparator.EQ:
            # equality predicates never produce constraints; the shift
            # function h below would be undefined for them
            raise ValueError("EQ constraints are never constructed")


ConstraintSet = Sequence[Constraint]


def satisfies(u: np.ndarray, constraint: Constraint) -> bool:
    """Whether ``u`` lies in the constraint's admissible region.

    Vectors whose residual is not finite (overflowed candidates) satisfy
    nothing; they are reported as violations rather than errors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _holds(u, constraint)


def _holds(u: np.ndarray, constraint: Constraint) -> bool:
    """``satisfies`` for callers already inside ``np.errstate``."""
    residual = float(constraint.normal @ u - constraint.bound)
    if not math.isfinite(residual):
        return False
    return constraint.comp.holds(residual)


def satisfies_all(u: np.ndarray, constraints: ConstraintSet) -> bool:
    """True when the set is empty or every member holds."""
    return all(satisfies(u, c) for c in constraints)


def transform_constraint(constraint: Constraint, basis: np.ndarray) -> Constraint | None:
    """Restrict a root-space constraint to the space of ``basis``'s rows.

    The rows are orthonormal and in root coordinates, so a local vector u
    lifts to ``basis.T @ u`` and n . (basis.T @ u) = (basis @ n) . u: the
    normal is projected and the bound carries over unchanged.  When the
    normal is orthogonal to the whole space the constraint cannot be
    expressed there and None is returned.
    """
    m = basis @ constraint.normal
    if float(m @ m) < DIVISION_GUARD:
        return None
    return Constraint(m, constraint.bound, constraint.comp)


def _shift(comp: Comparator, coord: float) -> float:
    """Shift off the hyperplane for strict comparators (the function h)."""
    if comp in (Comparator.LE, Comparator.GE):
        return 0.0
    eps = epsilon_from_value(coord)
    if comp is Comparator.LT:
        return -eps
    return eps  # NEQ, GT


def _nudge_inside(u: np.ndarray, constraint: Constraint) -> np.ndarray:
    """Fix a projection that rounding left an ulp outside the half-space.

    The exact projection lands on the boundary (or eps off it); float dot
    products can flip the residual's sign.  One epsilon-sized push along the
    normal dominates that noise without visibly moving the vector.
    """
    n = constraint.normal
    nn = float(n @ n)
    if nn < DIVISION_GUARD:
        return u
    coord = float(n @ u) / nn
    if not math.isfinite(coord):
        return u
    eps = epsilon_from_value(coord)
    sign = -1.0 if constraint.comp in (Comparator.LE, Comparator.LT) else 1.0
    return u + sign * eps * n


def clip(u: np.ndarray, constraints: ConstraintSet, grad: np.ndarray, *,
         rounds: int = CLIP_ROUNDS) -> np.ndarray:
    """Project ``u`` into the constraint region, at most ``rounds`` times over.

    Each violated constraint moves u along a direction m by
    u += relax * ((b - n . u) / (n . m) + h(P)) * m, which with relax = 1
    lands exactly on its boundary (shifted by h(P) for strict comparators).
    The first round uses relax = 1; later rounds over-relax, overshooting
    the boundary, which turns the asymptotic zig-zag between acute
    constraint pairs into convergence within the round limit.  m is the
    normal n, except in the first round when ``grad`` is nonzero: there m
    is the component of n orthogonal to the gradient, which preserves the
    candidate's value under the linearised last function (later rounds
    revert to n since the tangent variant converges poorly).  The result
    may still violate the set if it is empty or concave; callers tolerate
    that.
    """
    u = np.array(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        return u  # nothing meaningful to project; callers filter these out
    with np.errstate(over="ignore", invalid="ignore"):
        if all(_holds(u, c) for c in constraints):
            return u
        for round_no in range(rounds):
            tangent = round_no == 0 and float(grad @ grad) > 0.0
            relax = 1.0 if round_no == 0 else RELAXATION
            for c in constraints:
                if _holds(u, c):
                    continue
                n = c.normal
                nu = float(n @ u)
                nn = float(n @ n)
                coord = nu / nn if nn >= DIVISION_GUARD else 0.0
                if not math.isfinite(coord):
                    continue
                m = n - (float(n @ grad) / float(grad @ grad)) * grad if tangent else n
                nm = float(n @ m)
                if abs(nm) < DIVISION_GUARD:
                    continue
                u = u + relax * ((c.bound - nu) / nm + _shift(c.comp, coord)) * m
                if not _holds(u, c):
                    u = _nudge_inside(u, c)
            if all(_holds(u, c) for c in constraints):
                break
    return u
