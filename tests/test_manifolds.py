"""Geometry oracles: projection, retraction, gradient, Hessian.

Covers the acceptance geometry suite: projector idempotency and
self-adjointness, retraction feasibility, finite-difference gradient checks
with second-order error decay, Hessian self-adjointness, and the
escape-direction curvature identity <U, Hess[U]> = 2 Tr(U^T S U) for
U with Y U^T = 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ALL_MANIFOLDS, dense_alm_cost, dense_bstar, \
    dense_phi_grad, manifold_error, random_problem
from lrsdp import manifolds
from lrsdp.alm import AlmSubproblem
from lrsdp.manifolds import FactorPoint, RetractionError
from lrsdp.problem import ManifoldKind

N_TRIALS = 100


def _random_points(manifold, rng, n=7, p=3, count=N_TRIALS):
    for _ in range(count):
        yield manifolds.random_point(n, p, manifold,
                                     int(rng.integers(2**31)))


def _subproblem_state(manifold, rng, n=7, p=3, m=3):
    sdp = random_problem(n, m, manifold, rng)
    y = rng.standard_normal(m)
    sigma = float(rng.uniform(0.5, 4.0))
    sub = AlmSubproblem(sdp, y, sigma)
    point = manifolds.random_point(n, p, manifold, int(rng.integers(2**31)))
    return sdp, sub, point, y, sigma


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS)
class TestProjection:
    def test_idempotent(self, manifold, rng):
        for point in _random_points(manifold, rng):
            U = rng.standard_normal(point.Y.shape)
            P1 = manifolds.project_tangent(point, U)
            P2 = manifolds.project_tangent(point, P1)
            assert np.max(np.abs(P2 - P1)) < 1e-12

    def test_self_adjoint(self, manifold, rng):
        for point in _random_points(manifold, rng):
            U = rng.standard_normal(point.Y.shape)
            V = rng.standard_normal(point.Y.shape)
            lhs = np.sum(manifolds.project_tangent(point, U) * V)
            rhs = np.sum(U * manifolds.project_tangent(point, V))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_matches_paper_formula(self, manifold, rng):
        # P_Y(U) = U - B*(u) Y with u_i = Tr(B_i U Y^T) / Tr(B_i^2 Y Y^T)
        point = manifolds.random_point(6, 2, manifold, 3)
        U = rng.standard_normal((6, 2))
        Y = point.Y
        if manifold is ManifoldKind.FREE:
            want = U
        elif manifold is ManifoldKind.UNIT_TRACE:
            u = np.trace(U @ Y.T) / np.trace(Y @ Y.T)
            want = U - u * Y
        else:
            u = np.diag(U @ Y.T) / np.diag(Y @ Y.T)
            want = U - u[:, None] * Y
        got = manifolds.project_tangent(point, U)
        assert np.allclose(got, want, atol=1e-12)

    def test_shape_mismatch_rejected(self, manifold, rng):
        point = manifolds.random_point(4, 2, manifold, 0)
        with pytest.raises(ValueError):
            manifolds.project_tangent(point, np.zeros((4, 3)))


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS)
class TestRetraction:
    def test_feasibility(self, manifold, rng):
        for point in _random_points(manifold, rng, count=50):
            U = rng.standard_normal(point.Y.shape)
            out = manifolds.retract(point, U, t=float(rng.uniform(0, 2)))
            assert manifold_error(out) < 1e-12

    def test_zero_step_fixed_point(self, manifold, rng):
        point = manifolds.random_point(5, 2, manifold, 1)
        out = manifolds.retract(point, np.zeros((5, 2)))
        assert np.allclose(out.Y, point.Y, atol=1e-15)

    def test_degenerate_step_raises(self, manifold, rng):
        if manifold is ManifoldKind.FREE:
            pytest.skip("free factors need no normalization")
        point = manifolds.random_point(5, 2, manifold, 1)
        with pytest.raises(RetractionError):
            manifolds.retract(point, -point.Y, t=1.0)


@settings(max_examples=200, deadline=None)
@given(manifold=st.sampled_from(ALL_MANIFOLDS),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 4),
                       st.integers(1, 3)),
       seed=st.integers(0, 2**31), k=st.integers(0, 39), data=st.data())
def test_escape_retraction_never_fails(manifold, shape, seed, k, data):
    # an escape retracts [Y 0] along [0 V] at t = 2^-k: each row of
    # [Y tV], or on the sphere the whole factor, is at least as long as
    # that of Y, so the retraction never divides by zero
    n, p, delta = shape
    Y = manifolds.random_point(n, p, manifold, seed).Y
    V = data.draw(arrays(np.float64, (n, delta),
                         elements=st.floats(-1e3, 1e3)))
    padded = FactorPoint(np.concatenate([Y, np.zeros((n, delta))], axis=1),
                         manifold)
    U = np.concatenate([np.zeros((n, p)), V], axis=1)
    out = manifolds.retract(padded, U, 0.5 ** k)
    assert manifold_error(out) < 1e-12


class TestRandomPoint:
    @pytest.mark.parametrize("manifold", ALL_MANIFOLDS)
    def test_feasible_and_deterministic(self, manifold):
        a = manifolds.random_point(8, 3, manifold, 42)
        b = manifolds.random_point(8, 3, manifold, 42)
        c = manifolds.random_point(8, 3, manifold, 43)
        assert manifold_error(a) < 1e-12
        assert np.array_equal(a.Y, b.Y)
        assert not np.array_equal(a.Y, c.Y)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS)
class TestGradient:
    def test_multiplier_matches_dense_formula(self, manifold, rng):
        # z_i = Tr(B_i X gradPhi) / Tr(B_i^2 X)
        sdp, sub, point, y, sigma = _subproblem_state(manifold, rng)
        G = dense_phi_grad(sdp, y, sigma, point.Y)
        X = point.Y @ point.Y.T
        z = manifolds.multiplier_z(point, G @ point.Y)
        if manifold is ManifoldKind.FREE:
            assert z.size == 0
        elif manifold is ManifoldKind.UNIT_TRACE:
            want = np.trace(X @ G) / np.trace(X)
            assert z[0] == pytest.approx(want, rel=1e-10)
        else:
            want = np.diag(X @ G) / np.diag(X)
            assert np.allclose(z, want, rtol=1e-10)

    def test_gradient_is_tangent(self, manifold, rng):
        for _ in range(20):
            sdp, sub, point, y, sigma = _subproblem_state(manifold, rng)
            grad = sub.at(point).grad
            proj = manifolds.project_tangent(point, grad)
            assert np.max(np.abs(proj - grad)) < 1e-9 * max(
                1.0, np.max(np.abs(grad)))

    def test_finite_difference_second_order_decay(self, manifold, rng):
        # Psi(R_Y(tU)) - Psi(Y) - t <grad, U> must shrink like t^2
        for _ in range(N_TRIALS // 10):
            sdp, sub, point, y, sigma = _subproblem_state(manifold, rng)
            state = sub.at(point)
            U = manifolds.project_tangent(
                point, rng.standard_normal(point.Y.shape))
            U /= np.linalg.norm(U)
            slope = float(np.sum(state.grad * U))
            rems = []
            for t in (1e-3, 5e-4, 2.5e-4):
                c = dense_alm_cost(sdp, y, sigma,
                                   manifolds.retract(point, U, t).Y)
                rems.append(abs(c - state.cost - t * slope))
            # halving t divides the remainder by about four
            assert rems[0] / max(rems[1], 1e-18) > 2.5
            assert rems[1] / max(rems[2], 1e-18) > 2.5

    def test_gradient_norm_against_directional_derivatives(self, manifold,
                                                           rng):
        sdp, sub, point, y, sigma = _subproblem_state(manifold, rng)
        state = sub.at(point)
        U = manifolds.project_tangent(point,
                                      rng.standard_normal(point.Y.shape))
        t = 1e-6
        c_plus = dense_alm_cost(sdp, y, sigma,
                                manifolds.retract(point, U, t).Y)
        c_minus = dense_alm_cost(sdp, y, sigma,
                                 manifolds.retract(point, U, -t).Y)
        fd = (c_plus - c_minus) / (2 * t)
        assert fd == pytest.approx(float(np.sum(state.grad * U)),
                                   rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS)
class TestHessian:
    def test_self_adjoint(self, manifold, rng):
        for _ in range(N_TRIALS):
            sdp, sub, point, y, sigma = _subproblem_state(manifold, rng,
                                                          n=6, p=2, m=2)
            state = sub.at(point)
            U = manifolds.project_tangent(
                point, rng.standard_normal(point.Y.shape))
            V = manifolds.project_tangent(
                point, rng.standard_normal(point.Y.shape))
            lhs = float(np.sum(state.hess_vec(U) * V))
            rhs = float(np.sum(U * state.hess_vec(V)))
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_hessian_maps_into_tangent(self, manifold, rng):
        sdp, sub, point, y, sigma = _subproblem_state(manifold, rng)
        state = sub.at(point)
        U = manifolds.project_tangent(point,
                                      rng.standard_normal(point.Y.shape))
        H = state.hess_vec(U)
        proj = manifolds.project_tangent(point, H)
        assert np.max(np.abs(proj - H)) < 1e-8 * max(1.0, np.max(np.abs(H)))

    def test_finite_difference_quadratic_model(self, manifold, rng):
        # Psi(R(tU)) = Psi + t<g,U> + t^2/2 <U,H U> + O(t^3) needs a
        # second-order retraction; the projective retraction is second
        # order here because its acceleration is normal to the manifold
        sdp, sub, point, y, sigma = _subproblem_state(manifold, rng)
        state = sub.at(point)
        U = manifolds.project_tangent(point,
                                      rng.standard_normal(point.Y.shape))
        U /= np.linalg.norm(U)
        quad = 0.5 * float(np.sum(U * state.hess_vec(U)))
        slope = float(np.sum(state.grad * U))
        rems = []
        for t in (1e-3, 5e-4):
            c = dense_alm_cost(sdp, y, sigma, manifolds.retract(point, U, t).Y)
            rems.append(abs(c - state.cost - t * slope - t * t * quad))
        assert rems[0] / max(rems[1], 1e-18) > 4.0

    def test_escape_curvature_identity(self, manifold, rng):
        # for U with Y U^T = 0: <U, Hess[U]> = 2 Tr(U^T S U)
        for _ in range(N_TRIALS):
            n, r, extra, m = 6, 2, 2, 2
            sdp = random_problem(n, m, manifold, rng)
            y = rng.standard_normal(m)
            sigma = float(rng.uniform(0.5, 4.0))
            base = manifolds.random_point(n, r, manifold,
                                          int(rng.integers(2**31)))
            Y = np.concatenate([base.Y, np.zeros((n, extra))], axis=1)
            point = FactorPoint(Y, manifold)
            U = np.concatenate(
                [np.zeros((n, r)), rng.standard_normal((n, extra))], axis=1)
            assert np.max(np.abs(Y @ U.T)) == 0.0
            sub = AlmSubproblem(sdp, y, sigma)
            state = sub.at(point)
            G = dense_phi_grad(sdp, y, sigma, Y)
            S = G - dense_bstar(manifold, state.z, n)
            lhs = float(np.sum(U * state.hess_vec(U)))
            rhs = 2.0 * float(np.trace(U.T @ S @ U))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_non_tangent_input_maps_into_tangent(self, manifold, rng):
        # the Weingarten term -2 B*(z) U is projected with the rest, so
        # even a normal component of U cannot leave the tangent space
        for _ in range(20):
            sdp, sub, point, y, sigma = _subproblem_state(manifold, rng)
            state = sub.at(point)
            U = rng.standard_normal(point.Y.shape)
            H = manifolds.riem_hess_vec(point, U, state.ehess, state.z)
            normal = H - manifolds.project_tangent(point, H)
            assert np.linalg.norm(normal) <= 1e-12 * np.linalg.norm(H)

    def test_tangent_input_matches_unprojected_weingarten(self, manifold,
                                                          rng):
        # on tangent inputs P_Y(-2 B*(z) U) = -2 B*(z) U, so the product
        # equals P_Y(Euclidean part) - 2 B*(z) U
        for _ in range(20):
            sdp, sub, point, y, sigma = _subproblem_state(manifold, rng)
            state = sub.at(point)
            U = manifolds.project_tangent(
                point, rng.standard_normal(point.Y.shape))
            htilde = state.ehess(U)
            want = manifolds.project_tangent(point, htilde) \
                - 2.0 * manifolds.bstar_times(point, state.z, U)
            got = manifolds.riem_hess_vec(point, U, state.ehess, state.z)
            assert np.linalg.norm(got - want) <= 1e-12 * max(
                1.0, np.linalg.norm(want))
