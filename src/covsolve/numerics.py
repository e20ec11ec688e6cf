"""Numerically robust step sizes.

A useful perturbation must survive both 64-bit float addition and the
rounding of each coordinate to its type.  ``epsilon_from_value`` gives the
smallest step that changes one value; ``epsilon_along_line`` gives the
first sampled step along a line from a valuation that moves its rounded
point.  README.md describes where the search takes each.  A sample rounds
only the coordinates its line moves, and the epsilon is, bit for bit, that
of a walk over every coordinate.
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
    origin.

    A sample rounds only the coordinates where ``direction`` is nonzero,
    each through its type.  Every other coordinate stays the origin's,
    which is on the grid by type.  The returned epsilon is, bit for bit, the
    one a walk over every coordinate gives, from the full-length
    ``dot(step, w)`` of ``rescaled``.

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

    samples = 2 * len(signature)
    if len(indices) == 1:
        offsets = _axis_offset(signature.types[indices[0]], float(origin.values[indices[0]]),
                               moves[0], eps1, samples)
    else:
        offsets = _offsets([signature.types[i] for i in indices],
                           # the origin's floats, as embed gives them: compared as an int, a
                           # clamped i64 would read 2**63 - 1 where its embedding reads 2**63
                           [float(origin.values[i]) for i in indices], moves, eps1, samples)
    if offsets is not None:
        if len(offsets) == 1 and (p := offsets[0] * (moves[0] / scale)):
            eps = p / (scale * ww)
        else:  # several products, or one that underflowed to a signed zero
            step = np.zeros(len(signature))
            step[indices] = offsets
            w = direction if scale == 1.0 else direction / scale  # v / 1.0 is v, bit for bit
            eps = float(dot(step, w)) / (scale * ww)
        if math.isfinite(eps * scale * math.sqrt(ww)):
            return eps
    raise NoStepError("no sample along the line changes the rounded vector")


def _axis_offset(typ: ScalarType, start: float, g: float, eps1: float,
                 samples: int) -> list[float] | None:
    """The one-coordinate walk: the first sample's move off ``start`` that rounds
    elsewhere, as a one-element list, or None when no sample moves.

    Each sample is one ``nearest`` and, if it rounds home, one ``next_value``,
    which reads only the sign of ``g``.
    """
    point = start + eps1 * g
    for _ in range(samples):
        try:
            rounded = float(typ.nearest(point))
        except ExtractionError:
            return None
        if rounded != start:
            return [point - start]
        nxt = typ.next_value(rounded, g)
        if nxt is None:
            return None
        increment = (nxt - rounded) / g
        if increment <= 0.0 or not math.isfinite(increment):
            return None
        point = point + increment * g
    return None


def _offsets(types: Sequence[ScalarType], start: list[float], moves: list[float], eps1: float,
             samples: int) -> list[float] | None:
    """The walk over several coordinates: the first sample's moves off ``start``
    when it rounds elsewhere, or None when no sample does.

    A sample that rounds home advances by the smallest line step that takes
    some coordinate to its type's next value.
    """
    point = [x + eps1 * g for x, g in zip(start, moves)]
    for _ in range(samples):
        try:
            rounded = round_vector(point, types)
        except ExtractionError:
            return None
        if rounded != start:
            return [x - x0 for x, x0 in zip(point, start)]
        increment = None
        for x, g, typ in zip(rounded, moves, types):
            nxt = typ.next_value(x, g)
            if nxt is not None:
                step = (nxt - x) / g
                if increment is None or step < increment:
                    increment = step
        if increment is None or increment <= 0.0 or not math.isfinite(increment):
            return None
        point = [x + increment * g for x, g in zip(point, moves)]
    return None
