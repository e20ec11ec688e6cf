"""Numerically robust step sizes.

The search works on real vectors whose coordinates ultimately round back to
machine-typed values, so a useful perturbation must be large enough to
survive both 64-bit float addition and the type rounding.  Two step sizes
are provided: one relative to a single value, and one along a line from a
valuation, the first sampled step that moves the rounded point.  The
solver's finite-difference gradient takes its steps from the latter, handing
it each row's nonzero coordinates and squared norm as it read them, once per
gradient and in plain floats.  A valuation's embedding lies on the typed
grid, so the line's origin is never rounded, and a sample rounds only what
it moves, the coordinates where the direction is nonzero, each through its
type in plain floats.  Along one axis the epsilon is taken in plain floats
too, so a gradient's step along one axis makes no numpy call, and costs in
a wide space what it costs in one dimension.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .localspace import dot, rescaled
from .vecspace import ExtractionError, ScalarType, Valuation, round_vector

#: Significand digits of a 64-bit float; steps shift the lower half of them.
_DIGITS = 53
_HALF_DIGITS = _DIGITS // 2

_SMALLEST_SUBNORMAL = 5e-324


class NoStepError(ValueError):
    """No epsilon along the line changes the rounded vector."""


def epsilon_from_value(a: float) -> float:
    """Smallest useful step from ``a``: changes its lower significand half.

    Writes ``a = m * 2**n`` with ``0.5 < |m| <= 1`` and returns
    ``2**(n - 26)``.  For ``a = 0`` the exponent is taken as 0, giving
    ``2**-26``.  The result added to ``a`` always changes ``a``'s
    representation (magnitudes below ~2**-1048 would underflow the formula;
    those clamp to the smallest subnormal to keep the guarantee).
    """
    if not math.isfinite(a):
        raise ValueError(f"epsilon step of non-finite value {a!r}")
    m, e = math.frexp(a)  # |m| in [0.5, 1), and frexp(0.0) is (0.0, 0)
    eps = math.ldexp(1.0, e - (abs(m) == 0.5) - _HALF_DIGITS)  # cannot overflow
    return eps if eps != 0.0 else _SMALLEST_SUBNORMAL


def epsilon_along_line(origin: Valuation, direction: np.ndarray, eps1: float,
                       line: tuple[list[int], list[float], float, float] | None = None) -> float:
    """Step size along ``embed(origin) + eps*direction`` that moves the rounded point.

    Samples up to ``2 * dim`` points on the line, the first at ``eps1``,
    each next one advanced by the smallest coordinate step that reaches the
    next representable value of some coordinate's type, and returns the
    epsilon of the first sample whose rounded vector differs from the
    origin.  A valuation lies on the typed grid, so no rounded point lies
    farther from the line than its own step, and no later sample lands
    nearer the line than this one.

    A sample rounds only what it moves: the coordinates where ``direction``
    is nonzero, each through its type, walked in plain floats.
    Every other coordinate stays the origin's, which is on the grid by
    type.  The returned epsilon is the one a walk over every coordinate
    gives, read from the full-length ``dot(step, w)`` of ``rescaled``.
    Along one axis that sum holds one nonzero product, which it returns
    as it is, so the epsilon is taken in plain floats there.

    ``line``, when given, is what the caller already read off ``direction``:
    its nonzero coordinates, the direction's entries there, and ``w . w``
    and ``scale`` as ``rescaled(direction)`` gives them.

    Raises NoStepError when every sample rounds back onto the origin, or
    when the first that moves lies farther than a float can measure.  Runs
    under ``solve``'s float policy, as ``rescaled`` does.
    """
    signature = origin.signature
    if line is None:
        direction = np.asarray(direction, dtype=np.float64)
        _, ww, scale = rescaled(direction)
        support = direction.nonzero()[0]
        indices, moves = support.tolist(), direction[support].tolist()
    else:
        indices, moves, ww, scale = line
    if ww == 0.0:
        raise ValueError("line direction must be nonzero")
    if not math.isfinite(ww):
        raise ValueError("line direction is not finite")
    if eps1 <= 0.0:
        raise ValueError("initial epsilon must be positive")

    types = [signature.types[i] for i in indices]
    # the origin's floats, as embed gives them: compared as an int, a clamped
    # i64 would read 2**63 - 1 where its embedding reads 2**63
    start = [float(origin.values[i]) for i in indices]
    point = [x + eps1 * g for x, g in zip(start, moves)]
    for _ in range(2 * len(signature)):
        try:
            rounded = round_vector(point, types)
        except ExtractionError:
            break
        if rounded != start:
            if len(indices) == 1 and (p := (point[0] - start[0]) * (moves[0] / scale)):
                eps = p / (scale * ww)
            else:  # several products, or one that underflowed to a signed zero
                step = np.zeros(len(signature))
                step[indices] = [x - x0 for x, x0 in zip(point, start)]
                eps = float(dot(step, direction / scale)) / (scale * ww)
            if math.isfinite(eps * scale * math.sqrt(ww)):
                return eps
            break
        increment = _min_coordinate_step(rounded, moves, types)
        if increment is None or increment <= 0.0 or not math.isfinite(increment):
            break
        point = [x + increment * g for x, g in zip(point, moves)]

    raise NoStepError("no sample along the line changes the rounded vector")


def _min_coordinate_step(rounded: Sequence[float], direction: Sequence[float],
                         types: Sequence[ScalarType]) -> float | None:
    """Smallest line step advancing some coordinate to its next typed value."""
    best = None
    for j, g_j in enumerate(direction):
        if g_j == 0.0:
            continue
        nxt = types[j].next_value(float(rounded[j]), math.copysign(1.0, g_j))
        if nxt is None:
            continue
        step = (nxt - float(rounded[j])) / g_j
        if best is None or step < best:
            best = step
    return best
