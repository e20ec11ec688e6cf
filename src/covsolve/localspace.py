"""Chains of orthonormal local bases and lifting between them.

Each prefix function gets a local space: an orthonormal basis whose vectors
are expressed in the coordinates of the previous level's space.  The first
level is the axis basis of the input space.  Subsequent levels remove the
previous function's gradient direction (keeping it as an explicit final
axis for inequality comparators), so that search in the last space
approximately preserves all earlier predicates.  Each basis is built in
closed form.  The search reads only the last space, so a chain keeps one
level: its rows in root coordinates, replaced as each level is built.
Every inner product of the search sums through ``dot``, and every division
by a squared norm goes through ``rescaled``.
"""

from __future__ import annotations

import math

import numpy as np

#: An axis whose part orthogonal to the gradient and the earlier axes is shorter is dropped.
ZERO_NORM = 1e-12

#: Elements of the product ``BasisChain.lift_rows`` holds at once (2 MB): a whole
#: level up to dimension 64 is one block.
_PRODUCT_ELEMENTS = 1 << 18


def dot(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum of ``a * b`` along ``axis``, in numpy's order rather than a BLAS kernel's.

    That order is the same on every CPU; broadcast, ``dot(m, v)`` is m @ v.
    """
    return np.add.reduce(np.multiply(a, b), axis=axis)


def rescaled(v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``(w, w . w, scale)`` with ``w = v / scale``, so v . v is ``scale**2 * (w . w)``.

    The plain square of v is taken as it is (``scale`` 1, ``w`` v itself)
    unless it leaves the normal range: it overflows from about 1.3e154 and
    underflows below 2**-511.  Only then is ``v`` divided by its largest
    magnitude first.  ``w . w`` is 0 only for a zero ``v``.  A step
    a*v/(v . v) then reads (a / (scale * ww)) * w, and the coefficient
    (x . v)/(v . v) reads dot(x, w) / (scale * ww).
    """
    with np.errstate(over="ignore"):
        vv = float(dot(v, v))
    if not 2.0 ** -1022 <= vv < math.inf:
        scale = float(np.abs(v).max(initial=0.0))
        if scale > 0.0:
            w = v / scale
            return w, float(dot(w, w)), scale
    return v, vv, 1.0


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v``, finite and nonzero whenever the true norm is."""
    _, ww, scale = rescaled(v)
    return scale * math.sqrt(ww)


def next_basis(grad: np.ndarray, *, append_gradient: bool) -> np.ndarray:
    """Basis of the next level, orthogonal to ``grad``, as ``(size, len(grad))`` rows.

    A zero gradient (a constant function) keeps the space: the axis basis is
    returned.  Otherwise let a = grad / max|grad| and r_j be the norm of its
    entries from axis j on.  Axis j's part orthogonal to ``grad`` and the
    earlier axes has norm r_{j+1} / r_j; the first axis where that is at most
    ``ZERO_NORM`` moves to the end of the order and is dropped.  Over that
    order, each other axis j gives the row
    (r_{j+1} / r_j) e_j - (a_j / r_j) (a_i / r_{j+1}) e_i, summed over the
    axes i after j.  With ``append_gradient`` the unit gradient a / r_0 is
    the final row, an explicit axis for inequality comparators to constrain.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.ndim != 1:
        raise ValueError(f"gradient of shape {grad.shape} is not a vector")
    prev_dim = len(grad)
    scale = float(np.abs(grad).max(initial=0.0))
    if scale == 0.0:
        return np.eye(prev_dim, dtype=np.float64)
    r = np.hypot.accumulate(np.abs(grad[::-1]) / scale)[::-1]
    # the last nonzero axis qualifies, and the one found is nonzero, so r > 0 below
    dropped = int(np.argmax(np.append(r[1:] <= ZERO_NORM * r[:-1], True)))
    order = np.arange(prev_dim) + (np.arange(prev_dim) >= dropped)
    order[-1] = dropped
    a = grad[order] / scale
    r = np.hypot.accumulate(np.abs(a[::-1]))[::-1]
    after = np.arange(prev_dim) > np.arange(prev_dim - 1)[:, None]
    rows = np.where(after, np.multiply.outer(-a[:-1] / r[:-1], a), 0.0) / r[1:, None]
    np.fill_diagonal(rows, r[1:] / r[:-1])
    basis = np.empty((prev_dim - 1 + append_gradient, prev_dim))
    basis[:prev_dim - 1, order] = rows
    if append_gradient:
        basis[-1, order] = a / r[0]
    return basis


class BasisChain:
    """The current level's basis, kept as its vectors' root-space rows.

    Level 1 is the axis basis, and each ``extend`` moves one level down the
    chain, so lifting a vector from the current level is a single product.
    The chain is grown once per solver iteration and read-only afterwards.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.rows = self._axes = np.eye(dim, dtype=np.float64)

    def extend(self, basis: np.ndarray) -> np.ndarray:
        """Move to the next level; the basis rows must live in the current space.

        From the axis basis no product is taken: for a finite basis each of
        its entries sums exact zeros and one basis entry, and numpy's sum
        starts from +0.0, so it is ``basis + 0.0`` bit for bit, a -0.0 made
        +0.0.
        """
        size, dim = self.rows.shape
        if basis.shape[1] != size:
            raise ValueError(
                f"basis over dimension {basis.shape[1]} cannot follow level of size {size}")
        if self.rows is self._axes:
            self.rows, self._axes = basis + 0.0, None
        else:
            self.rows = self.lift_rows(basis)
        return basis

    def lift(self, u: np.ndarray) -> np.ndarray:
        """Express a current-level vector in root coordinates (the * operator)."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.rows.shape[0],):
            raise ValueError(
                f"vector of dimension {u.shape} at a level of size {self.rows.shape[0]}")
        return dot(u[:, None], self.rows, axis=0)

    def lift_rows(self, V: np.ndarray) -> np.ndarray:
        """Each row of ``V``, a current-level vector, in root coordinates: ``lift`` row by row.

        Each output row sums its own (size, dim) product term by term, as
        ``lift`` does, so blocks of rows give the same bytes as one product,
        in memory bounded however wide the space.
        """
        size, dim = self.rows.shape
        if V.ndim != 2 or V.shape[1] != size:
            raise ValueError(f"rows of shape {V.shape} at a level of size {size}")
        block = max(1, _PRODUCT_ELEMENTS // max(1, size * dim))
        out = np.empty((V.shape[0], dim), dtype=np.float64)
        for start in range(0, V.shape[0], block):
            out[start:start + block] = dot(V[start:start + block, :, None], self.rows, axis=1)
        return out
