"""Extreme eigenpairs of implicit symmetric operators and thin SVDs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse.linalg as spla

DENSE_THRESHOLD = 1024


class EigsolverError(RuntimeError):
    """Iterative eigensolver failed to converge; carries best residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass
class SymOperator:
    """Self-adjoint operator given by its action on tall-thin matrices.

    ``dense`` holds the matrix when it is known: the dual slack is one dense
    S per point, built by ``problem.dual_slack``. Up to DENSE_THRESHOLD one
    cached ``eigh`` serves every eigensolve of S; ARPACK runs above it.
    """

    n: int
    action: Callable[[np.ndarray], np.ndarray]
    dense: Optional[np.ndarray] = None

    def times(self, V):
        if self.dense is not None:
            return self.dense @ V
        single = V.ndim == 1
        if single:
            V = V[:, None]
        out = self.action(V)
        return out[:, 0] if single else out

    def eigh(self):
        """All eigenvalues (ascending) and eigenvectors, computed once."""
        cached = getattr(self, "_eigh", None)
        if cached is None:
            S = self.dense
            if S is None:
                S = self.times(np.eye(self.n))
            cached = self._eigh = np.linalg.eigh(0.5 * (S + S.T))
        return cached

    @staticmethod
    def from_dense(S):
        S = np.asarray(S, dtype=float)
        return SymOperator(S.shape[0], lambda V: S @ V, dense=S)


def extreme_eigs(op, count, side="smallest", tol=1e-10, seed=0):
    """``count`` extreme eigenpairs of a symmetric operator.

    Returns a list of (eigenvalue, eigenvector) pairs, sorted ascending for
    side="smallest" and descending for side="largest". Up to the dense
    threshold the pairs come from the operator's cached ``eigh``; above it
    a Lanczos iteration (implicitly restarted, deterministic start derived
    from ``seed``) is used.
    """
    if side not in ("smallest", "largest"):
        raise ValueError(f"unknown side {side!r}")
    if not 1 <= count <= op.n:
        raise ValueError(f"count must be in [1, {op.n}]")
    if op.n <= DENSE_THRESHOLD:
        vals, vecs = op.eigh()
        if side == "smallest":
            idx = np.arange(count)
        else:
            idx = np.arange(op.n - 1, op.n - 1 - count, -1)
        return [(float(vals[i]), vecs[:, i].copy()) for i in idx]
    return _lanczos_eigs(op, count, side, tol, seed)


def _lanczos_eigs(op, count, side, tol, seed):
    """Lanczos via ARPACK with a deterministic start vector.

    Smallest eigenvalues are computed as the largest of c I - A with
    c >= lambda_max: Krylov spaces of A itself can fail to expose interior
    or null directions at the bottom of the spectrum (a null vector is
    annihilated by every power of A beyond the zeroth).
    """
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(op.n)
    ncv = min(op.n, max(4 * count, 30))
    best_residual = None

    def run(matvec, which, k, this_tol):
        linop = spla.LinearOperator((op.n, op.n), matvec=matvec, dtype=float)
        return spla.eigsh(linop, k=k, which=which, tol=this_tol, v0=v0,
                          ncv=min(op.n, ncv * (attempt + 1)),
                          maxiter=50 * op.n)

    for attempt in range(3):
        try:
            if side == "largest":
                vals, vecs = run(lambda v: op.times(v), "LA", count, tol)
            else:
                top, _ = run(lambda v: op.times(v), "LA", 1, 1e-6)
                c = float(top[0]) + 1.0
                svals, vecs = run(lambda v: c * v - op.times(v), "LA",
                                  count, tol)
                vals = c - svals
        except spla.ArpackNoConvergence as exc:
            if len(exc.eigenvalues):
                best_residual = float(np.linalg.norm(
                    op.times(exc.eigenvectors[:, 0])
                    - exc.eigenvalues[0] * exc.eigenvectors[:, 0]))
            continue
        order = np.argsort(vals)
        if side == "largest":
            order = order[::-1]
        return [(float(vals[i]), vecs[:, i].copy()) for i in order]
    raise EigsolverError("Lanczos failed to converge", best_residual)


def thin_svd(Y):
    """Thin SVD Y = W diag(s) V^T with s sorted nonincreasing."""
    W, s, Vt = np.linalg.svd(np.asarray(Y, dtype=float), full_matrices=False)
    return W, s, Vt.T
