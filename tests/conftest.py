"""Shared fixtures and dense reference oracles for the test suite.

The oracles build everything with explicit dense matrices so they are
independent of the matrix-free code paths they check.
"""

import numpy as np
import pytest

from lrsdp import manifolds
from lrsdp.problem import ManifoldKind, SdpProblem, SparseSymMatrix

ALL_MANIFOLDS = (ManifoldKind.FREE, ManifoldKind.UNIT_TRACE,
                 ManifoldKind.UNIT_DIAGONAL)


def random_sym_triplets(n, nnz, rng):
    """Distinct upper-triangular triplets with normal values."""
    pairs = set()
    while len(pairs) < nnz:
        i, j = sorted(rng.integers(0, n, size=2))
        pairs.add((int(i), int(j)))
    return [(i, j, float(rng.standard_normal())) for i, j in sorted(pairs)]


def random_problem(n, m, manifold, rng, nnz=None):
    nnz = nnz or max(2, n)
    C = SparseSymMatrix.from_triplets(n, random_sym_triplets(n, nnz, rng))
    A = [SparseSymMatrix.from_triplets(n, random_sym_triplets(n, nnz, rng))
         for _ in range(m)]
    b = rng.standard_normal(m)
    return SdpProblem(n, C, A, b, manifold)


def random_feasible_point(sdp, p, rng):
    return manifolds.random_point(sdp.n, p, sdp.manifold,
                                  int(rng.integers(2**31)))


def manifold_error(point):
    """max |B_i(Y Y^T) - 1| over the manifold constraints, 0 on FREE."""
    dots = manifolds.constraint_dots(point.manifold, point.Y, point.Y)
    return float(np.max(np.abs(dots - 1.0), initial=0.0))


def dense_constraint_values(sdp, X):
    return np.array([float(np.sum(Ak.to_dense() * X)) for Ak in sdp.A])


def dense_alm_cost(sdp, y, sigma, Y):
    """Psi_k(Y) evaluated with dense matrices only."""
    X = Y @ Y.T
    r = dense_constraint_values(sdp, X) - sdp.b
    return (float(np.sum(sdp.C.to_dense() * X)) - float(y @ r)
            + 0.5 * sigma * float(r @ r))


def dense_phi_grad(sdp, y, sigma, Y):
    """grad Phi_k(X) = C + sigma A*(A(X) - b - y/sigma), dense."""
    X = Y @ Y.T
    r = dense_constraint_values(sdp, X) - sdp.b
    shift = r - y / sigma if sdp.m else r
    G = sdp.C.to_dense().copy()
    for k, Ak in enumerate(sdp.A):
        G += sigma * shift[k] * Ak.to_dense()
    return G


def dense_bstar(manifold, z, n):
    if manifold is ManifoldKind.FREE:
        return np.zeros((n, n))
    if manifold is ManifoldKind.UNIT_TRACE:
        return z[0] * np.eye(n)
    return np.diag(z)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
