"""Extreme eigenpairs of the dense dual slack, Cholesky bounds on its
smallest eigenvalue and on its curvature off a given range, and thin
SVDs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SymOperator:
    """Dense symmetric matrix with its eigendecomposition, computed once.

    The dual slack is one dense S per point, built by
    ``problem.dual_slack``. One cached ``eigh`` serves every eigensolve of
    S that reads eigenvectors (the escape pairs, and lambda_min and
    lambda_max beside them) at every n; one cached ``eigvalsh`` serves
    the eigensolves that read eigenvalues alone, in a smaller workspace.
    An outer iteration that cannot converge skips both when
    ``proves_lambda_min_above`` bounds lambda_min instead, and one whose S
    has no curvature to escape along, as
    ``proves_off_range_curvature_above`` shows, skips the eigenvectors.
    ``dense`` must be exactly symmetric: ``eigh``, ``eigvalsh`` and
    ``cholesky`` read one triangle.
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

    def eigvalsh(self):
        """All eigenvalues (ascending), computed once without vectors."""
        cached = getattr(self, "_eigvalsh", None)
        if cached is None:
            cached = self._eigvalsh = np.linalg.eigvalsh(self.dense)
        return cached


def extreme_eigs(op, count, side="smallest", vectors=True):
    """``count`` extreme eigenpairs of a symmetric operator.

    Returns a list of (eigenvalue, eigenvector) pairs, sorted ascending for
    side="smallest" and descending for side="largest", taken from the
    operator's cached ``eigh``. With ``vectors=False`` the eigenvalues
    come from its cached ``eigvalsh`` instead, and each eigenvector is
    None.
    """
    if side not in ("smallest", "largest"):
        raise ValueError(f"unknown side {side!r}")
    if not 1 <= count <= op.n:
        raise ValueError(f"count must be in [1, {op.n}]")
    if side == "smallest":
        idx = np.arange(count)
    else:
        idx = np.arange(op.n - 1, op.n - 1 - count, -1)
    if not vectors:
        vals = op.eigvalsh()
        return [(float(vals[i]), None) for i in idx]
    vals, vecs = op.eigh()
    return [(float(vals[i]), vecs[:, i].copy()) for i in idx]


def proves_lambda_min_above(op, bound):
    """True when one Cholesky factorization proves lambda_min >= -bound.

    Factors S + tau I with tau = bound - mu, where
    mu = (n + 1) gamma_{n+1} (||S||_F + bound) and
    gamma_k = k u / (1 - k u) for the unit roundoff u. A Cholesky
    factorization that runs to completion is exact for a matrix within
    n gamma_{n+1} ||S + tau I||_2 of its input (Higham 2002, Thm 10.5), and
    rounding the shifted diagonal adds at most gamma_{n+1} of the same
    norm; with ||S + tau I||_2 <= ||S||_F + bound, success proves
    lambda_min(S) >= -tau - mu = -bound. False without factoring when
    tau <= 0, and False when a pivot of S + tau I is not positive. The
    diagonal is shifted in place and restored from a copy of its n
    entries: S keeps its bits, and no n x n copy is made.
    """
    S, n = op.dense, op.n
    u = np.finfo(S.dtype).eps / 2
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    tau = bound - (n + 1) * gamma * (np.linalg.norm(S) + bound)
    if not tau > 0:
        return False
    diag = np.diagonal(S).copy()
    np.fill_diagonal(S, diag + tau)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(S, diag)
    return True


def proves_off_range_curvature_above(op, Q, bound):
    """True when one Cholesky factorization proves x^T S x >= -bound x^T x
    for every x orthogonal to range(Q); for Q of r columns, then
    lambda_{r+1}(S) >= -bound.

    Factors M = S + c Q Q^T + tau I, built in a fresh array so S keeps its
    bits, with c = 2 ||S||_F: c Q Q^T vanishes off range(Q), and on
    range(Q) it lifts the curvature of S, at least -||S||_2, to at least
    ||S||_2. With N = ||S||_F + c ||Q||_F^2 + bound,
    which bounds ||M||_2, the Cholesky argument of
    ``proves_lambda_min_above`` costs n gamma_{n+1} N, forming c Q Q^T at
    most gamma_{r+1} c ||Q||_F^2 and the two sums at most 2 u N; so
    mu = (n + 4) gamma_{n+1} N and tau = bound - mu. False without
    factoring when tau <= 0, and False when a pivot of M is not positive.
    """
    S, n = op.dense, op.n
    u = np.finfo(S.dtype).eps / 2
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    norm_s = np.linalg.norm(S)
    c = 2.0 * norm_s
    N = norm_s + c * float(np.sum(Q * Q)) + bound
    tau = bound - (n + 4) * gamma * N
    if not tau > 0:
        return False
    M = (c * Q) @ Q.T
    M += S
    M[np.diag_indices(n)] += tau
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def thin_svd(Y):
    """Thin SVD Y = W diag(s) V^T with s sorted nonincreasing."""
    W, s, Vt = np.linalg.svd(np.asarray(Y, dtype=float), full_matrices=False)
    return W, s, Vt.T
