"""Extreme eigenpairs of the dense dual slack and thin SVDs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SymOperator:
    """Dense symmetric matrix with its eigendecomposition, computed once.

    The dual slack is one dense S per point, built by
    ``problem.dual_slack``; one cached ``eigh`` serves every eigensolve of
    S (lambda_min, lambda_max and the escape pairs) at every n. ``dense``
    must be exactly symmetric: ``eigh`` reads only its lower triangle.
    """

    dense: np.ndarray

    @property
    def n(self):
        return self.dense.shape[0]

    def times(self, V):
        return self.dense @ V

    def eigh(self):
        """All eigenvalues (ascending) and eigenvectors, computed once."""
        cached = getattr(self, "_eigh", None)
        if cached is None:
            cached = self._eigh = np.linalg.eigh(self.dense)
        return cached


def extreme_eigs(op, count, side="smallest"):
    """``count`` extreme eigenpairs of a symmetric operator.

    Returns a list of (eigenvalue, eigenvector) pairs, sorted ascending for
    side="smallest" and descending for side="largest", taken from the
    operator's cached ``eigh``.
    """
    if side not in ("smallest", "largest"):
        raise ValueError(f"unknown side {side!r}")
    if not 1 <= count <= op.n:
        raise ValueError(f"count must be in [1, {op.n}]")
    vals, vecs = op.eigh()
    if side == "smallest":
        idx = np.arange(count)
    else:
        idx = np.arange(op.n - 1, op.n - 1 - count, -1)
    return [(float(vals[i]), vecs[:, i].copy()) for i in idx]


def thin_svd(Y):
    """Thin SVD Y = W diag(s) V^T with s sorted nonincreasing."""
    W, s, Vt = np.linalg.svd(np.asarray(Y, dtype=float), full_matrices=False)
    return W, s, Vt.T
