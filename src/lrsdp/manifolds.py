"""Geometry of the factor manifolds: projection, retraction, multipliers,
Riemannian gradient and Hessian-vector products.

A point is a dense n x p factor Y together with its manifold kind. Tangent
vectors are plain ndarrays tied to a base point by context. The manifold
constraints B(Y Y^T) = 1 are defined here once, by ``constraint_dots`` and
``constraint_norms``; the rest, here and in ``problem``, derives from them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ManifoldKind(enum.Enum):
    """Structure imposed on X besides the arbitrary linear constraints.

    FREE: no extra structure. UNIT_TRACE: Tr(X) = 1, so the factor lives on
    the Frobenius sphere. UNIT_DIAGONAL: diag(X) = 1, so every row of the
    factor is a unit vector (oblique manifold).
    """

    FREE = "free"
    UNIT_TRACE = "unit-trace"
    UNIT_DIAGONAL = "unit-diagonal"


def constraint_dots(manifold, A, B):
    """<B_i, A B^T> for every manifold constraint B_i: none on FREE, the
    trace <A, B> on UNIT_TRACE (B_1 = I), the row dots on UNIT_DIAGONAL."""
    if manifold is ManifoldKind.FREE:
        return np.zeros(0)
    if manifold is ManifoldKind.UNIT_TRACE:
        return np.array([np.sum(A * B)])
    return np.einsum("ij,ij->i", A, B)


def constraint_norms(manifold, Z):
    """The norms that the constraints fix at 1, as a column dividing Z: the
    whole factor's on UNIT_TRACE, each row's on UNIT_DIAGONAL."""
    axis = None if manifold is ManifoldKind.UNIT_TRACE else 1
    return np.linalg.norm(Z, axis=axis, keepdims=True)


class RetractionError(RuntimeError):
    """A retraction step produced a degenerate (unnormalizable) factor."""


@dataclass(frozen=True)
class FactorPoint:
    """Factor Y of X = Y Y^T constrained to a manifold."""

    Y: np.ndarray
    manifold: ManifoldKind

    @property
    def n(self):
        return self.Y.shape[0]

    @property
    def p(self):
        return self.Y.shape[1]


def project_tangent(point, U):
    """Orthogonal projection of U onto the tangent space at the point,
    U - B*(z) Y with z the constraint dots of U and Y: a copy of U on
    FREE, where B* is zero."""
    Y = point.Y
    if U.shape != Y.shape:
        raise ValueError(f"shape mismatch: {U.shape} vs {Y.shape}")
    return U - bstar_times(point, constraint_dots(point.manifold, U, Y), Y)


def retract(point, U, t=1.0):
    """Metric-projection retraction of Y + t U back onto the manifold."""
    Z = point.Y + t * U
    if point.manifold is ManifoldKind.FREE:
        return FactorPoint(Z, point.manifold)
    nrms = constraint_norms(point.manifold, Z)
    if np.min(nrms) < 1e-300:
        raise RetractionError("zero factor or row after step")
    return FactorPoint(Z / nrms, point.manifold)


def multiplier_z(point, grad_phi_Y):
    """Closed-form manifold multipliers from W = grad Phi(X) Y.

    UNIT_TRACE: z = <Y, W> (one entry). UNIT_DIAGONAL: z_i = Y_i . W_i,
    row-wise. FREE: empty. Never touches X itself.
    """
    return constraint_dots(point.manifold, point.Y, grad_phi_Y)


def bstar_times(point, z, V):
    """B*(z) @ V for the manifold's constraint matrices."""
    if point.manifold is ManifoldKind.FREE:
        return np.zeros_like(V)
    return z[:, None] * V


def riem_grad(point, grad_phi_Y, z):
    """Riemannian gradient 2 S Y = 2 (grad Phi(X) Y - B*(z) Y)."""
    return 2.0 * (grad_phi_Y - bstar_times(point, z, point.Y))


def riem_hess_vec(point, U, ehess, z):
    """Riemannian Hessian-vector product from the Euclidean one.

    ``ehess`` maps U to the Euclidean Hessian product of the cost at the
    point, and z holds the manifold multipliers. On the sphere and the
    oblique manifold this is P_Y(ehess(U) - 2 B*(z) U): the Weingarten term
    is projected together with the Euclidean part, so every product lies in
    the tangent space whatever the rounding of U. An unprojected -2 B*(z) U
    would carry U's normal rounding error into each product, and over many
    tCG steps the operator drifts from symmetric on the tangent space.
    """
    htilde = ehess(U)
    if point.manifold is ManifoldKind.FREE:
        return htilde
    return project_tangent(point,
                           htilde - bstar_times(point, 2.0 * z, U))


def random_point(n, p, manifold, seed):
    """Standard-normal factor retracted onto the manifold; deterministic."""
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n, p))
    base = FactorPoint(np.zeros((n, p)), ManifoldKind(manifold))
    return retract(base, Y)
