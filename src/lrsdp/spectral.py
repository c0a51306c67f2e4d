"""One eigensolve of the dense dual slack, one Cholesky proof of a lower
bound on its curvature (everywhere, or off a given range), and thin
SVDs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SymOperator:
    """The dense dual slack S of one outer row, from ``problem.dual_slack``,
    with no decomposition kept. ``dense`` must be exactly symmetric:
    ``eigh``, ``eigvalsh`` and ``cholesky`` read one triangle."""

    dense: np.ndarray

    @property
    def n(self):
        return self.dense.shape[0]

    def times(self, V):
        return self.dense @ V


def extreme_eigs(op, vectors):
    """One eigensolve of ``op``: all its eigenvalues, ascending, and the
    eigenvectors from ``eigh``, or without ``vectors`` the eigenvalues of
    ``eigvalsh`` and None. A failed eigensolve raises LinAlgError."""
    if vectors:
        return np.linalg.eigh(op.dense)
    return np.linalg.eigvalsh(op.dense), None


def proves_curvature_above(op, bound, Q=None):
    """True when one Cholesky factorization proves x^T S x >= -bound x^T x
    for every x orthogonal to range(Q). Without Q (None, or no columns)
    that is lambda_min(S) >= -bound; for Q of r columns it gives
    lambda_{r+1}(S) >= -bound.

    Factors M = S + c Q Q^T + tau I with tau = bound - mu. For x orthogonal
    to range(Q), x^T M x = x^T S x + tau x^T x, so a factorization showing
    lambda_min(M) >= -mu proves the bound. The term c Q Q^T only lets the
    factorization succeed: with c = 2 s, s = ||S||_inf >= ||S||_2, it lifts
    the curvature of S on range(Q), at least -s, to at least s. Write u for
    the unit roundoff, gamma_k = k u / (1 - k u), p = c ||Q||_F^2 and
    T = sum_i |S_ii| + p + n bound; M^ is M as stored, mirrored from the
    triangle that ``cholesky`` reads.

    - Factoring (componentwise; Higham 2002, Thm 10.3, and Rump, BIT 46,
      2006). A factorization that completes gives R^T R = M^ + D with
      |D| <= gamma_{n+1} |R^T| |R|, so ||D||_2 <= gamma_{n+1} ||R||_F^2.
      As ||R||_F^2 = tr(M^ + D) <= tr(M^) + gamma_{n+1} ||R||_F^2,
      ||D||_2 <= gamma_{n+1} / (1 - gamma_{n+1}) tr(M^), and
      tr(M^) <= (1 + gamma_{r+3}) T. R^T R is positive semidefinite, so
      lambda_min(M^) >= -||D||_2. This grows as n u tr(M), where a normwise
      bound grows as n^2 u ||M||_F and stops proving anything at large n.
    - Forming M^. fl(c Q) Q^T lies within gamma_{r+1} c |Q| |Q|^T of
      c Q Q^T, at most gamma_{r+1} p in the 2-norm; adding S and then tau
      on the diagonal round each entry by at most u times its magnitude,
      at most 3 u (s + p + bound) together, since || |S| ||_2 <= s.

    Both terms together are at most mu / 2, where
    mu = 2 gamma_{n+3} (T + s + p + bound); the other half covers the
    rounding in evaluating tau, T, s and p. Without Q, Q is the n x 0
    matrix: r = 0, and the same code forms c Q Q^T as exact zeros, so
    M^ holds S plus the shift. There s = 0, as no range needs lifting,
    and the margin does not grow: the shift's rounding, at most
    u (max_i |S_ii| + bound), lies within that other half too. False
    without factoring when tau <= 0, and False when a pivot of M^ is not
    positive. M^ is a fresh array: the proof writes nothing into S or Q.
    """
    S, n = op.dense, op.n
    Q = np.zeros((n, 0)) if Q is None else Q
    u = np.finfo(S.dtype).eps / 2
    gamma = (n + 3) * u / (1 - (n + 3) * u)
    s = float(np.linalg.norm(S, np.inf)) if Q.shape[1] else 0.0
    c = 2.0 * s
    p = c * float(np.sum(Q * Q))
    T = float(np.sum(np.abs(np.diagonal(S)))) + p + n * bound
    tau = bound - 2.0 * gamma * (T + s + p + bound)
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
