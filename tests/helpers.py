"""Checks shared by several test modules."""

import numpy as np


def orthonormality_error(vectors: np.ndarray) -> float:
    """Largest deviation of the rows from pairwise orthonormality."""
    if vectors.shape[0] == 0:
        return 0.0
    gram = vectors @ vectors.T
    return float(np.max(np.abs(gram - np.eye(vectors.shape[0]))))
