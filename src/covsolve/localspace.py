"""Chains of orthonormal local bases and lifting between them.

Each prefix function gets a local space: an orthonormal basis, in the
coordinates of the previous level's space, orthogonal to the function's
gradient there (README.md, step 1 of the search).  A chain keeps one
level, its rows in root coordinates.  Every inner product of the search
sums through ``dot``, in numpy's order, so a run is the same on every BLAS
kernel, and every division by a squared norm goes through ``rescaled``.
Lifting a block of rows gives, bit for bit, the rows ``lift`` gives.
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
    (x . v)/(v . v) reads dot(x, w) / (scale * ww).  Runs under ``solve``'s
    float policy: called alone, a square that overflows warns as numpy does.
    """
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

    The norms are summed by ``np.hypot`` over the gradient's nonzero entries
    alone: hypot(r, 0) is r.  A gradient with a non-finite entry raises
    ValueError.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.ndim != 1:
        raise ValueError(f"gradient of shape {grad.shape} is not a vector")
    size = len(grad)
    support = grad.nonzero()[0].tolist()
    if not support:
        return np.eye(size, dtype=np.float64)
    entries = grad[support].tolist()
    scale = max(map(abs, entries))
    mags = [abs(g) / scale for g in entries]
    r = _tail_norms(mags)
    if not math.isfinite(r[0]):
        raise ValueError("gradient is not finite")
    # the last nonzero axis qualifies, so an axis is found, and it is nonzero
    k = next(k for k in range(len(support)) if r[k + 1] <= ZERO_NORM * r[k])
    dropped = support[k]
    if k + 1 < len(support):  # the dropped axis moves past later nonzero ones
        support = support[:k] + support[k + 1:] + [dropped]
        r = _tail_norms(mags[:k] + mags[k + 1:] + [mags[k]])
    norms, filled = [], 0  # r at each position of the order
    for i, r_i in zip(support, r):
        position = size - 1 if i == dropped else i - (i > dropped)
        norms += [r_i] * (position + 1 - filled)
        filled = position + 1
    norms = np.array(norms)
    a = grad / scale
    c = np.concatenate((a[:dropped], a[dropped + 1:]))
    np.divide(c, norms[:-1], out=c)
    np.negative(c, out=c)
    # row j is axis j before the dropped axis and axis j + 1 from it on.  Its
    # entries lie on the axes after its own in the order: the larger ones, and
    # the dropped axis, which comes last.  From the dropped axis on, j < i
    # also marks the row's own axis, which the strided store below rewrites
    axes = np.arange(size)
    after = axes[:-1, None] < axes
    after[dropped:, dropped] = True
    basis = np.zeros((size - 1 + append_gradient, size))
    rows = basis[:size - 1]
    np.multiply(c[:, None], a, out=rows, where=after)
    np.divide(rows, norms[1:, None], out=rows)
    own = norms[1:] / norms[:-1]
    flat = basis.reshape(-1)
    flat[:dropped * (size + 1):size + 1] = own[:dropped]
    flat[dropped * (size + 1) + 1:(size - 1) * size:size + 1] = own[dropped:]
    if append_gradient:
        np.divide(a, norms[0], out=basis[-1])
    return basis


def _tail_norms(mags: list[float]) -> list[float]:
    """The norm of ``mags`` from each entry on, then 0.0, as ``np.hypot`` sums them."""
    return np.hypot.accumulate(mags[::-1]).tolist()[::-1] + [0.0]


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

    def extend(self, basis: np.ndarray) -> None:
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
