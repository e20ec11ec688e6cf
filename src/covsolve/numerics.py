"""Numerically robust step sizes.

The search works on real vectors whose coordinates ultimately round back to
machine-typed values, so a useful perturbation must be large enough to
survive both 64-bit float addition and the type rounding.  Two step sizes
are provided: one relative to a single value, and one along a line through
the typed grid, the first sampled step that moves the rounded point.  The
solver's finite-difference gradient takes its steps from the latter.
"""

from __future__ import annotations

import math

import numpy as np

from .localspace import dot, rescaled
from .vecspace import ExtractionError, Signature, round_vector

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
    if a == 0.0:
        n = 0
    else:
        m, e = math.frexp(a)  # |m| in [0.5, 1)
        n = e - 1 if abs(m) == 0.5 else e
    eps = math.ldexp(1.0, n - _HALF_DIGITS)  # n <= 1024: cannot overflow
    if eps == 0.0:
        return _SMALLEST_SUBNORMAL
    return eps


def epsilon_along_line(
    origin: np.ndarray,
    direction: np.ndarray,
    eps1: float,
    signature: Signature,
) -> float:
    """Step size along ``origin + eps*direction`` that moves the rounded point.

    Samples up to ``2 * dim`` points on the line, the first at ``eps1``,
    each next one advanced by the smallest coordinate step that reaches the
    next representable value of some coordinate's type, and returns the
    epsilon of the first sample whose rounded vector differs from the
    rounded origin.  From an origin on the typed grid (the solver's origins
    always are) no rounded point lies farther from the line than its own
    step, so no later sample lands nearer the line than this one.

    Raises NoStepError when every sample rounds back onto the origin, or
    when the first that moves lies farther than a float can measure.
    """
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    w, ww, scale = rescaled(direction)
    if ww == 0.0:
        raise ValueError("line direction must be nonzero")
    if not math.isfinite(ww):
        raise ValueError("line direction is not finite")
    if eps1 <= 0.0:
        raise ValueError("initial epsilon must be positive")

    rounded_origin = round_vector(origin, signature)

    with np.errstate(over="ignore", invalid="ignore"):
        point = origin + eps1 * direction
        for _ in range(2 * origin.shape[0]):
            try:
                rounded = round_vector(point, signature)
            except ExtractionError:
                break
            if not np.array_equal(rounded, rounded_origin):
                eps = float(dot(point - origin, w)) / (scale * ww)
                if math.isfinite(eps * scale * math.sqrt(ww)):
                    return eps
                break
            increment = _min_coordinate_step(rounded, direction, signature)
            if increment is None or increment <= 0.0 or not math.isfinite(increment):
                break
            point = point + increment * direction

    raise NoStepError("no sample along the line changes the rounded vector")


def _min_coordinate_step(rounded: np.ndarray, direction: np.ndarray,
                         signature: Signature) -> float | None:
    """Smallest line step advancing some coordinate to its next typed value."""
    best = None
    for j, g_j in enumerate(direction):
        if g_j == 0.0:
            continue
        nxt = signature.types[j].next_value(float(rounded[j]), math.copysign(1.0, g_j))
        if nxt is None:
            continue
        step = (nxt - float(rounded[j])) / g_j
        if best is None or step < best:
            best = step
    return best
