"""Chains of orthonormal local bases and lifting between them.

Each prefix function gets a local space: an orthonormal basis whose vectors
are expressed in the coordinates of the previous level's space.  The first
level is the axis basis of the input space.  Subsequent levels remove the
previous function's gradient direction (keeping it as an explicit final
axis for inequality comparators), so that search in the last space
approximately preserves all earlier predicates.
"""

from __future__ import annotations

import math

import numpy as np

#: Gram-Schmidt residuals below this norm count as the zero vector.
ZERO_NORM = 1e-12


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v``, finite whenever the true norm is.

    The plain norm squares the entries, which overflows from about 1.3e154;
    only then is ``v`` rescaled by its largest magnitude first.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm):
        scale = float(np.max(np.abs(v)))
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def next_basis(grad: np.ndarray, prev_dim: int, *, append_gradient: bool) -> np.ndarray:
    """Basis of the next level, orthogonal to ``grad``, as ``(size, prev_dim)`` rows.

    A zero gradient means the function is constant and the space is kept:
    the axis basis is returned.  Otherwise each axis of the current space is
    Gram-Schmidt-reduced against the normalised gradient and the vectors
    emitted so far (two passes, which keeps long chains orthonormal), and
    appended when a nonzero residual remains.  With ``append_gradient`` the
    normalised gradient itself becomes the final basis vector, giving
    inequality comparators an explicit axis to constrain.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != (prev_dim,):
        raise ValueError(f"gradient of dimension {grad.shape} in space of {prev_dim}")
    norm = vector_norm(grad)
    if norm == 0.0:
        return np.eye(prev_dim, dtype=np.float64)
    if math.isinf(norm):  # beyond the float range: normalise a rescaled copy
        grad = grad / float(np.max(np.abs(grad)))
        norm = float(np.linalg.norm(grad))

    unit_grad = grad / norm
    emitted: list[np.ndarray] = []
    for j in range(prev_dim):
        w = np.zeros(prev_dim, dtype=np.float64)
        w[j] = 1.0
        for _ in range(2):
            w = w - (w @ unit_grad) * unit_grad
            for v in emitted:
                w = w - (w @ v) * v
        w_norm = float(np.linalg.norm(w))
        if w_norm >= ZERO_NORM:
            emitted.append(w / w_norm)
    if append_gradient:
        emitted.append(unit_grad)
    # an EQ predicate over a 1-dimensional space leaves an empty basis;
    # keep the two-dimensional shape so the chain stays well-formed
    return np.array(emitted, dtype=np.float64).reshape(len(emitted), prev_dim)


class BasisChain:
    """Bases B_1..B_k, each kept as its vectors' root-space form.

    The chain is grown once per solver iteration and read-only afterwards.
    ``lifted(i)`` holds the level-i basis vectors expressed in root
    coordinates, so lifting a vector from the top level is a single product.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self._lifted: list[np.ndarray] = [np.eye(dim, dtype=np.float64)]

    def __len__(self) -> int:
        return len(self._lifted)

    def lifted(self, level: int) -> np.ndarray:
        """Level ``level`` basis vectors as rows in root coordinates."""
        return self._lifted[level - 1]

    def dim_at(self, level: int) -> int:
        return self._lifted[level - 1].shape[0]

    def extend(self, basis: np.ndarray) -> np.ndarray:
        """Append the next level; the basis rows must live in the current top space."""
        top_size = self._lifted[-1].shape[0]
        if basis.shape[1] != top_size:
            raise ValueError(
                f"basis over dimension {basis.shape[1]} cannot follow level of size {top_size}")
        self._lifted.append(basis @ self._lifted[-1])
        return basis

    def lift(self, u: np.ndarray) -> np.ndarray:
        """Express a top-level vector in root coordinates (the * operator)."""
        u = np.asarray(u, dtype=np.float64)
        lifted = self._lifted[-1]
        if u.shape != (lifted.shape[0],):
            raise ValueError(
                f"vector of dimension {u.shape} at top level of size {lifted.shape[0]}")
        return u @ lifted

