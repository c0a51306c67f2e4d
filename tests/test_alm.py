"""Outer loop: dual assembly, escape, rank truncation, penalty, solve."""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_bstar, dense_phi_grad, manifold_error, \
    random_problem
from lrsdp import alm, generators, manifolds, problem as prob, rtr, spectral
from lrsdp.alm import (AlmSubproblem, SolverOptions, assemble_dual,
                       escape_direction, solve, truncate_rank, update_penalty)
from lrsdp.manifolds import FactorPoint
from lrsdp.problem import ManifoldKind, SdpProblem, SparseSymMatrix


def _residual(sdp, point):
    return prob.apply_constraints(sdp, point.Y) - sdp.b


def _completion_30():
    # s = t = 30, rank 2, every entry sampled: rows without eta_d mid-solve
    _, entries = generators.random_completion(30, 30, 2, 900, 0)
    return generators.gen_matrix_completion(30, 30, entries)


def _random_graph(n, seed):
    # n nodes and 3n distinct unit edges
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < 3 * n:
        i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
        edges.add((int(i), int(j), 1.0))
    return generators.WeightedGraph(n, tuple(sorted(edges)))


def _unit_trace_toy():
    # min x11 - x22 s.t. Tr X = 1: optimum -1 at X = e2 e2^T
    C = SparseSymMatrix.from_triplets(2, [(0, 0, 1.0), (1, 1, -1.0)])
    return SdpProblem(2, C, [], np.zeros(0), ManifoldKind.UNIT_TRACE)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(delta_ne=0).validate()
        SolverOptions().validate()

    @pytest.mark.parametrize("field,value", [
        ("tol", 0.0), ("tol", -1e-8), ("tol", np.inf), ("tol", np.nan),
        ("max_outer_iters", 0), ("delta_ne", 0), ("max_time", 0.0),
        ("max_time", -1.0), ("max_time", np.nan), ("tol", True),
        ("tol", "1e-8"), ("tol", None), ("max_time", True),
        ("max_time", "5"), ("delta_ne", True), ("delta_ne", 2.0),
        ("delta_ne", 2.5), ("max_outer_iters", 3.5), ("seed", -1),
        ("seed", 1.0), ("seed", False), ("seed", "0"),
        ("max_outer_iters", None), ("tol", np.True_), ("max_time", [5.0]),
        ("delta_ne", np.int64(0)),
    ])
    def test_every_field_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value}).validate()

    def test_edge_values_accepted(self):
        SolverOptions(max_outer_iters=1, delta_ne=1, max_time=None,
                      seed=0).validate()
        SolverOptions(delta_ne=np.int32(2), seed=np.uint8(7),
                      max_outer_iters=np.int16(5), tol=np.float32(1e-6),
                      max_time=np.int64(5)).validate()

    def test_zero_outer_iterations_rejected_by_solve(self):
        with pytest.raises(ValueError, match="max_outer_iters"):
            solve(_unit_trace_toy(), SolverOptions(max_outer_iters=0))

    def test_infinite_tol_rejected_by_solve(self):
        # X_00 = 2 on the unit diagonal is infeasible, yet every residue
        # is below an infinite tol
        A = [SparseSymMatrix.from_triplets(3, [(0, 0, 1.0)])]
        sdp = SdpProblem(3, SparseSymMatrix.identity(3), A, np.array([2.0]),
                         ManifoldKind.UNIT_DIAGONAL)
        with pytest.raises(ValueError, match="positive and finite"):
            solve(sdp, SolverOptions(tol=np.inf))


class TestSubproblem:
    def test_cost_matches_dense(self, rng):
        from conftest import dense_alm_cost
        sdp = random_problem(5, 3, ManifoldKind.UNIT_DIAGONAL, rng)
        y = rng.standard_normal(3)
        sub = AlmSubproblem(sdp, y, 2.5)
        point = manifolds.random_point(5, 2, sdp.manifold, 3)
        want = dense_alm_cost(sdp, y, 2.5, point.Y)
        assert sub.cost(point) == pytest.approx(want, rel=1e-12)
        assert sub.at(point).cost == pytest.approx(want, rel=1e-12)

    def test_one_evaluation_per_point(self, rng, monkeypatch):
        # at(point) after cost(point) reuses the residual; a new point
        # evaluates again, and only the last point is kept
        sdp = random_problem(5, 3, ManifoldKind.UNIT_DIAGONAL, rng)
        calls = []
        apply = prob.apply_constraints
        monkeypatch.setattr(prob, "apply_constraints",
                            lambda *args: calls.append(1) or apply(*args))
        sub = AlmSubproblem(sdp, rng.standard_normal(3), 2.5)
        pt = manifolds.random_point(5, 2, sdp.manifold, 3)
        pt2 = manifolds.random_point(5, 2, sdp.manifold, 4)
        cost = sub.cost(pt)
        assert sub.at(pt).cost == cost and len(calls) == 1
        sub.at(pt2)
        assert len(calls) == 2
        assert sub.cost(pt) == cost and len(calls) == 3

    def test_gradient_is_2SY(self, rng):
        # grad = 2 (gradPhi(X) - B*(z)) Y with dense reference matrices
        for manifold in ManifoldKind:
            sdp = random_problem(5, 2, manifold, rng)
            y = rng.standard_normal(2)
            sub = AlmSubproblem(sdp, y, 1.7)
            point = manifolds.random_point(5, 2, manifold, 9)
            state = sub.at(point)
            G = dense_phi_grad(sdp, y, 1.7, point.Y)
            S = G - dense_bstar(manifold, state.z, 5)
            assert np.allclose(state.grad, 2.0 * S @ point.Y, atol=1e-10)


class TestPreconditioner:
    @staticmethod
    def _matrix(precon, shape):
        """The matrix of ``precon`` on the flattened n x p arrays."""
        size = shape[0] * shape[1]
        return np.column_stack([precon(np.eye(size)[k].reshape(shape))
                                .ravel() for k in range(size)])

    @pytest.mark.parametrize("zero_column", [False, True])
    def test_free_state_is_spd(self, zero_column, rng):
        # R -> R K^-1 with K SPD of mean eigenvalue 1, also at a factor
        # with a zero column, as after an escape pads Y
        sdp = random_problem(6, 3, ManifoldKind.FREE, rng)
        point = manifolds.random_point(6, 3, sdp.manifold, 5)
        if zero_column:
            point = FactorPoint(point.Y * [1.0, 1.0, 0.0], sdp.manifold)
        state = AlmSubproblem(sdp, rng.standard_normal(3), 2.5).at(point)
        P = self._matrix(state.precon, point.Y.shape)
        assert np.array_equal(P, P.T)
        vals = np.linalg.eigvalsh(P)
        assert vals[0] > 0
        assert np.mean(1.0 / vals) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("manifold,m", [
        (ManifoldKind.FREE, 0), (ManifoldKind.UNIT_DIAGONAL, 3),
        (ManifoldKind.UNIT_TRACE, 3)])
    def test_none_off_the_constrained_free_manifold(self, manifold, m, rng):
        sdp = random_problem(6, m, manifold, rng)
        point = manifolds.random_point(6, 3, manifold, 5)
        state = AlmSubproblem(sdp, rng.standard_normal(m), 2.5).at(point)
        assert state.precon is None

    @pytest.mark.parametrize("y,precon", [(0.0, False), (1.0, True)])
    def test_none_where_the_slack_vanishes(self, y, precon):
        # C = 0, y = 0 and a feasible point make S~ = 0, so K's alpha is 0;
        # y = 1 makes S~ = -A_1, and K exists
        sdp = SdpProblem(2, SparseSymMatrix.from_triplets(2, []),
                         [SparseSymMatrix.from_triplets(2, [(0, 0, 1.0)])],
                         np.ones(1), ManifoldKind.FREE)
        point = FactorPoint(np.array([[1.0, 0.0], [0.0, 0.0]]),
                            ManifoldKind.FREE)
        state = AlmSubproblem(sdp, np.array([y]), 2.5).at(point)
        assert prob.dual_slack(sdp, state.slack.w).any() == bool(y)
        assert (state.precon is not None) == precon


def _dense_riem_grad(sdp, y, sigma, Y):
    """Riemannian gradient of the ALM cost from dense matrices.

    Uses transposes, never conjugates, so it is analytic in Y and a complex
    step differentiates it to machine precision.
    """
    X = Y @ Y.T
    As = [Ak.to_dense() for Ak in sdp.A]
    shift = np.array([np.sum(A * X) for A in As]) - sdp.b - y / sigma
    G = sdp.C.to_dense() + sigma * sum(
        (s * A for s, A in zip(shift, As)), np.zeros((sdp.n, sdp.n)))
    return _dense_project(sdp.manifold, Y, 2.0 * G @ Y)


def _dense_project(manifold, Y, W):
    if manifold is ManifoldKind.FREE:
        return W
    if manifold is ManifoldKind.UNIT_TRACE:
        return W - np.sum(W * Y) * Y
    return W - np.sum(W * Y, axis=1)[:, None] * Y


class TestHessianOracle:
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("manifold", list(ManifoldKind))
    def test_hess_vec_matches_dense_oracle(self, manifold, m, rng):
        # Riemannian Hessian of an embedded submanifold: the projected
        # derivative of the projected gradient (Absil et al. 2008, 5.15)
        sdp = random_problem(6, m, manifold, rng)
        y = rng.standard_normal(m)
        point = manifolds.random_point(6, 3, manifold, 11)
        U = manifolds.project_tangent(point,
                                      rng.standard_normal(point.Y.shape))
        h = 1e-30
        dgrad = _dense_riem_grad(sdp, y, 2.5, point.Y + 1j * h * U).imag / h
        want = _dense_project(manifold, point.Y, dgrad)
        got = AlmSubproblem(sdp, y, 2.5).at(point).hess_vec(U)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


class TestAssembleDual:
    def test_matches_dense_slack(self, rng):
        for manifold in ManifoldKind:
            sdp = random_problem(6, 3, manifold, rng)
            y = rng.standard_normal(3)
            point = manifolds.random_point(6, 2, manifold, 4)
            z, S = assemble_dual(AlmSubproblem(sdp, y, 3.0).at(point))
            G = dense_phi_grad(sdp, y, 3.0, point.Y)
            want = G - dense_bstar(manifold, z, 6)
            assert np.allclose(S.dense, want, atol=1e-10)
            V = rng.standard_normal((6, 2))
            assert np.allclose(S.times(V), want @ V, atol=1e-10)

    @pytest.mark.parametrize("manifold", list(ManifoldKind))
    def test_same_bits_as_subproblem(self, manifold, rng):
        # z is the subproblem's own, and S its S~ less B*(z): both are the
        # bits the solver's other routes give
        sdp = random_problem(9, 4, manifold, rng)
        y, sigma = rng.standard_normal(4), 3.0
        point = manifolds.random_point(9, 3, manifold, 5)
        r0 = _residual(sdp, point)
        z, S = assemble_dual(AlmSubproblem(sdp, y, sigma).at(point))
        want_z = AlmSubproblem(sdp, y, sigma).at(point).z
        assert z.dtype == want_z.dtype and z.tobytes() == want_z.tobytes()
        want_S = prob.dual_slack(sdp, y - sigma * r0, z)
        assert S.dense.tobytes() == want_S.tobytes()

    def test_slack_is_gradient_over_2Y(self, rng):
        # S Y must equal half the Riemannian gradient of the subproblem
        sdp = random_problem(6, 2, ManifoldKind.UNIT_DIAGONAL, rng)
        y = rng.standard_normal(2)
        point = manifolds.random_point(6, 3, sdp.manifold, 8)
        z, S = assemble_dual(AlmSubproblem(sdp, y, 2.0).at(point))
        state = AlmSubproblem(sdp, y, 2.0).at(point)
        assert np.allclose(2.0 * S.times(point.Y), state.grad, atol=1e-10)


    @pytest.mark.parametrize("manifold", list(ManifoldKind))
    def test_above_dense_threshold(self, manifold, rng):
        # n past the eigensolver's former dense threshold (1024): S is one
        # dense matrix, shared by the subproblem and the dual assembly
        n = 1034
        sdp = random_problem(n, 3, manifold, rng)
        y = rng.standard_normal(3)
        point = manifolds.random_point(n, 2, manifold, 6)
        G = dense_phi_grad(sdp, y, 2.0, point.Y)
        z, S = assemble_dual(AlmSubproblem(sdp, y, 2.0).at(point))
        want = G - dense_bstar(manifold, z, n)
        assert np.allclose(S.dense, want, atol=1e-10)
        state = AlmSubproblem(sdp, y, 2.0).at(point)
        V = rng.standard_normal((n, 2))
        assert np.allclose(prob.dual_slack(sdp, state.slack.w) @ V, G @ V,
                           atol=1e-10)
        assert np.allclose(state.z, z, atol=1e-10)
        assert np.allclose(state.grad, 2.0 * want @ point.Y, atol=1e-10)


class TestSlackStructure:
    def test_completion_builds_one_dense_slack_per_outer_row(
            self, monkeypatch):
        # off the full support the inner solve forms no dense S~: the only
        # dense slack is each row's S, built by assemble_dual
        calls, dual_slack = [], prob.dual_slack

        def counted(*args):
            calls.append(args)
            return dual_slack(*args)
        monkeypatch.setattr(prob, "dual_slack", counted)
        sol = solve(_completion_30())
        assert sol.status == "converged"
        assert len(calls) == sol.iterations

    def test_subproblem_point_below_one_dense_array(self):
        # n = 1000, every A_i in the off-diagonal block: the point's slack,
        # support map and C's CSR, and then a Hessian product, together
        # peak below one n x n array
        s = t = 500
        _, entries = generators.random_completion(s, t, 3, 5000, 0)
        sdp = generators.gen_matrix_completion(s, t, entries)
        point = manifolds.random_point(sdp.n, 3, sdp.manifold, 0)
        rng = np.random.default_rng(0)
        sub = AlmSubproblem(sdp, rng.standard_normal(sdp.m), 2.0)
        U = rng.standard_normal(point.Y.shape)
        tracemalloc.start()
        try:
            state = sub.at(point)
            state.hess_vec(U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.precon is not None
        assert peak < 8 * sdp.n ** 2


class TestEscapeDirection:
    def test_worked_two_by_two(self):
        # unit-trace toy at the saddle Y = e1: S = diag(0, -2), so the
        # escape direction is e2 appended as a new column
        sdp = _unit_trace_toy()
        point = FactorPoint(np.array([[1.0], [0.0]]),
                            ManifoldKind.UNIT_TRACE)
        z, S = assemble_dual(AlmSubproblem(sdp, np.zeros(0), 1.0).at(point))
        assert np.allclose(S.dense, np.diag([0.0, -2.0]), atol=1e-12)
        V, delta = escape_direction(spectral.extreme_eigs(S, True),
                                    delta_ne=10, tol_escape=1e-10)
        assert delta == 1
        assert V.shape == (2, 1)
        assert np.allclose(np.abs(V[:, 0]), [0.0, 1.0], atol=1e-12)

        # padded point: gradient orthogonal to U = [0 V], curvature
        # = 2 sum(lambda)
        U = np.concatenate([np.zeros((2, 1)), V], axis=1)
        Y_pad = np.array([[1.0, 0.0], [0.0, 0.0]])
        padded = FactorPoint(Y_pad, ManifoldKind.UNIT_TRACE)
        state = AlmSubproblem(sdp, np.zeros(0), 1.0).at(padded)
        assert abs(np.sum(U * state.grad)) < 1e-12
        assert np.sum(U * state.hess_vec(U)) == pytest.approx(-4.0,
                                                              abs=1e-10)

    def test_psd_slack_no_escape(self, rng):
        eig = np.linalg.eigh(np.diag([0.5, 1.0, 2.0]))
        V, delta = escape_direction(eig, delta_ne=5, tol_escape=1e-10)
        assert delta == 0
        assert V.shape == (3, 0)

    def test_delta_capped(self, rng):
        eig = np.linalg.eigh(np.diag([-3.0, -2.0, -1.0, 1.0]))
        V, delta = escape_direction(eig, delta_ne=2, tol_escape=1e-10)
        assert delta == 2
        assert V.shape == (4, 2)
        assert np.array_equal(np.abs(V), np.eye(4)[:, :2])

    def test_above_old_dense_threshold(self):
        # n = 1034 once took an ARPACK path; the escape reads the row's
        # one eigh, as at every other n
        n = 1034
        d = np.arange(n, dtype=float)
        d[[7, 500, 1033]] = [-3.0, -2.0, -1.0]
        eig = spectral.extreme_eigs(spectral.SymOperator(np.diag(d)), True)
        V, delta = escape_direction(eig, delta_ne=10, tol_escape=1e-10)
        assert delta == 3
        assert V.shape == (n, 3)
        for col, i in zip(V.T, (7, 500, 1033)):
            assert np.array_equal(np.abs(col), np.eye(n)[i])
        # a copy: freeing the eigenvectors frees all n x n of them
        assert not np.shares_memory(V, eig[1])

    def test_eigenvector_columns(self, rng):
        A = rng.standard_normal((6, 6))
        S_dense = 0.5 * (A + A.T) - 2 * np.eye(6)
        vals = np.linalg.eigvalsh(S_dense)
        n_neg = int(np.sum(vals < -1e-10))
        V, delta = escape_direction(np.linalg.eigh(S_dense),
                                    delta_ne=10, tol_escape=1e-10)
        assert delta == n_neg
        for v in V.T:
            lam = v @ S_dense @ v
            assert np.linalg.norm(S_dense @ v - lam * v) < 1e-8


class _CostOnly:
    """A model of the last column with only the ``cost`` an escape step
    reads."""

    def __init__(self, f):
        self.f = f

    def cost(self, point):
        return float(self.f(point.Y[:, -1]))


class TestEscapeStep:
    # the step pads the factor Y = e1 with the column it moves along V
    start = FactorPoint(np.array([[1.0], [0.0]]), ManifoldKind.FREE)
    padded = np.array([[1.0, 0.0], [0.0, 0.0]])

    def test_escape_direction_consumed(self):
        # start at a strict saddle of an indefinite quadratic with zero
        # gradient; only the escape direction can move the iterate
        saddle = _CostOnly(lambda y: 0.5 * (y[0] ** 2 - y[1] ** 2))
        point = alm.escape_step(saddle, self.start, np.array([[0.0], [1.0]]))
        assert point.Y.shape == (2, 2)
        assert np.array_equal(point.Y[:, 0], self.start.Y[:, 0])
        assert saddle.cost(point) < 0.0

    def test_first_halving_with_strictly_lower_cost(self):
        # along V = e2 the cost t^4 - t^2 is 0 at t = 1 (not strictly
        # lower) and below 0 at t = 1/2
        model = _CostOnly(lambda y: y[1] ** 4 - y[1] ** 2)
        V = np.array([[0.0], [1.0]])
        assert np.array_equal(alm.escape_step(model, self.start, V).Y,
                              self.padded + [[0.0, 0.0], [0.0, 0.5]])

    def test_no_descent_keeps_the_point(self):
        model = _CostOnly(lambda y: y[1] ** 2)
        point = alm.escape_step(model, self.start, np.ones((2, 1)))
        assert point.manifold is self.start.manifold
        assert np.array_equal(point.Y, self.padded)


def _cut(point, rng=None):
    """``truncate_rank`` with the thin SVD that ``solve`` passes it."""
    rng = np.random.default_rng(0) if rng is None else rng
    return truncate_rank(point, rng, spectral.thin_svd(point.Y))


class TestTruncateRank:
    @pytest.mark.parametrize("manifold", list(ManifoldKind))
    def test_cuts_small_singular_values(self, manifold, rng):
        base = manifolds.random_point(6, 2, manifold, 1)
        pad = 1e-9 * rng.standard_normal((6, 2))
        Y = np.concatenate([base.Y, pad], axis=1)
        point = _cut(FactorPoint(Y, manifold))
        assert point.p == 2
        assert manifold_error(point) < 1e-12

    def test_zero_free_factor_restarts_at_rank_one(self):
        # an all-zero factor has no rank to keep: one standard-normal
        # column, drawn from the rng, the same for the same rng
        zero = FactorPoint(np.zeros((5, 3)), ManifoldKind.FREE)
        point = _cut(zero, np.random.default_rng(4))
        assert point.Y.shape == (5, 1) and point.Y.any()
        seed = np.random.default_rng(4).integers(2**32)
        want = manifolds.random_point(5, 1, ManifoldKind.FREE, seed)
        assert point.Y.tobytes() == want.Y.tobytes()
        again = _cut(zero, np.random.default_rng(4))
        assert again.Y.tobytes() == point.Y.tobytes()
        other = _cut(zero, np.random.default_rng(5))
        assert other.Y.tobytes() != point.Y.tobytes()

    def test_failed_retraction_keeps_the_point(self, monkeypatch):
        # a zero row in the cut factor cannot be normalized: the cut is
        # not taken, and the untruncated point goes on
        def fails(*args):
            raise manifolds.RetractionError("zero factor or row after step")
        point = manifolds.random_point(6, 3, ManifoldKind.UNIT_DIAGONAL, 2)
        monkeypatch.setattr(manifolds, "retract", fails)
        assert _cut(point) is point

    def test_keeps_full_rank(self, rng):
        Y = rng.standard_normal((5, 3))
        point = _cut(FactorPoint(Y, ManifoldKind.FREE))
        assert point.p == 3
        # free manifold: the truncated factor spans the same X
        X0 = Y @ Y.T
        X1 = point.Y @ point.Y.T
        assert np.allclose(X0, X1, atol=1e-10)



class TestUpdatePenalty:
    def test_both_branches_and_caps(self):
        assert (alm.GAMMA, alm.TAU) == (2.0, 1.0)
        assert update_penalty(2.0, 1.0, 0.1) == 4.0     # grow
        assert update_penalty(2.0, 0.05, 1.0) == 1.0    # shrink
        # capped above, then below
        assert update_penalty(alm.SIGMA_MAX, 1.0, 0.0) == alm.SIGMA_MAX
        assert update_penalty(alm.SIGMA_MIN, 0.0, 1.0) == alm.SIGMA_MIN


class TestSolve:
    def test_unit_trace_toy(self):
        sol = solve(_unit_trace_toy())
        assert sol.status == "converged"
        assert sol.objective == pytest.approx(-1.0, abs=1e-6)
        assert sol.residues.eta_max <= 1e-8

    def test_constrained_pin(self):
        # min Tr(X) s.t. X11 = 4 on the free cone: optimum 4
        C = SparseSymMatrix.identity(2)
        A = [SparseSymMatrix.from_triplets(2, [(0, 0, 1.0)])]
        sdp = SdpProblem(2, C, A, np.array([4.0]), ManifoldKind.FREE)
        sol = solve(sdp)
        assert sol.status == "converged"
        assert sol.objective == pytest.approx(4.0, abs=1e-7)

    def test_solution_invariants(self):
        sol = solve(_unit_trace_toy())
        assert manifold_error(sol.Y) < 1e-10
        assert sol.iterations == len(sol.trace)
        assert sol.trace[-1].eta_max == sol.residues.eta_max
        ts = [t.time for t in sol.trace]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_max_time_bounds_the_inner_solve(self, monkeypatch):
        # a clock that advances one second per reading: the solve starts at
        # 1 with deadline 4, so the inner solve takes the steps read at 2, 3
        # and 4 and stops at 5; the outer check then ends the solve
        _, entries = generators.random_completion(6, 6, 1, 24, 0)
        sdp = generators.gen_matrix_completion(6, 6, entries)
        free = solve(sdp, SolverOptions(max_outer_iters=1))
        assert free.trace[0].inner_iters > 3
        readings = iter(range(1, 1000))
        monkeypatch.setattr(time, "perf_counter", lambda: next(readings))
        sol = solve(sdp, SolverOptions(max_time=3.0))
        assert sol.status == "time-limit" and sol.iterations == 1
        assert sol.trace[0].inner_iters == 3

    def test_radius_collapse_relaxes_the_next_tolerance(self, monkeypatch):
        # one inner solve that ends in radius-collapse gives the next outer
        # iteration a 10x looser gradient tolerance (capped at EPS0); the
        # one after that decays from the relaxed value as usual
        collapse_at = 3
        grad_tols = []
        minimize = rtr.minimize

        def collapsing(model, point, grad_tol, max_iters, deadline=None):
            grad_tols.append(grad_tol)
            point, report, state = minimize(
                model, point, grad_tol, max_iters, deadline=deadline)
            if len(grad_tols) == collapse_at + 1:
                report = replace(report, reason="radius-collapse")
            return point, report, state

        monkeypatch.setattr(rtr, "minimize", collapsing)
        opts = SolverOptions(tol=1e-300, max_outer_iters=collapse_at + 3)
        sol = solve(_unit_trace_toy(), opts)
        assert sol.iterations == len(grad_tols) == collapse_at + 3
        assert grad_tols == [t.eps for t in sol.trace]
        for k in range(1, len(grad_tols)):
            decayed = max(alm.EPS_FLOOR, grad_tols[k - 1] * alm.EPS_DECAY)
            if k == collapse_at + 1:
                want = min(10.0 * decayed, alm.EPS0)
                assert want > decayed
            else:
                want = decayed
            assert grad_tols[k] == want

    def test_dual_assembly_takes_the_residual_from_solve(self, monkeypatch):
        # solve hands assemble_dual the subproblem's state at the returned
        # point, and assemble_dual evaluates neither A(Y Y^T) nor z: it
        # builds S once, through the state's own Slack at its own w. Where
        # the A_i touch all of X (BQP) that copies the held S~ and calls no
        # dual_slack; elsewhere (the toy) it calls dual_slack once
        C = SparseSymMatrix.from_triplets(3, [(0, 0, 1.0), (1, 2, -0.5),
                                              (2, 2, 2.0)])
        A = [SparseSymMatrix.from_triplets(3, [(0, 1, 1.0), (1, 2, 0.5)])]
        manifold = ManifoldKind.UNIT_DIAGONAL
        Y0 = manifolds.random_point(3, 2, manifold, 1).Y
        b = prob.apply_constraints(SdpProblem(3, C, A, [0.0], manifold), Y0)
        toy = SdpProblem(3, C, A, b, manifold)
        bqp = generators.gen_bqp_moment(*generators.random_bqp(3, 0))
        assemble, inside, states = alm.assemble_dual, [], []
        dual_slack, slacks = prob.dual_slack, []
        dual, duals = prob.Slack.dual, []

        def forbidden(module, name):
            fn = getattr(module, name)

            def guarded(*args):
                assert not inside, f"assemble_dual called {name}"
                return fn(*args)
            monkeypatch.setattr(module, name, guarded)

        def counted(sdp, w, z=None):
            S = dual_slack(sdp, w, z)
            if inside:
                slacks.append((w, S))
            return S

        def counted_dual(slack, z):
            S = dual(slack, z)
            if inside:
                duals.append((slack, z, S))
            return S

        def checked(state):
            sdp = state.slack.problem
            inside.append(state)
            slacks.clear()
            duals.clear()
            try:
                z, S = assemble(state)
            finally:
                inside.clear()
            assert z is state.z
            assert len(duals) == 1
            assert duals[0][0] is state.slack and duals[0][1] is z
            assert S.dense is duals[0][2]
            assert len(slacks) == (0 if sdp is bqp else 1)
            if slacks:
                assert slacks[0][0] is state.slack.w
                assert S.dense is slacks[0][1]
            assert S.dense.tobytes() == \
                dual_slack(sdp, state.slack.w, z).tobytes()
            states.append(state)
            return z, S

        forbidden(prob, "apply_constraints")
        forbidden(manifolds, "multiplier_z")
        monkeypatch.setattr(prob, "dual_slack", counted)
        monkeypatch.setattr(prob.Slack, "dual", counted_dual)
        monkeypatch.setattr(alm, "assemble_dual", checked)
        for sdp in (toy, bqp):
            full = sdp._support_map().shape == (sdp.n, sdp.n)
            assert full == (sdp is bqp)
            states.clear()
            sol = solve(sdp, SolverOptions(max_outer_iters=50))
            assert sol.status == "converged"
            assert len(states) == sol.iterations
            assert states[-1].point is sol.Y and sol.z is states[-1].z

    def test_iteration_limit_status(self):
        sdp = _unit_trace_toy()
        sol = solve(sdp, SolverOptions(tol=1e-30, max_outer_iters=2))
        assert sol.status == "iteration-limit"
        assert sol.iterations == 2

    @pytest.mark.parametrize("family", ["bqp", "completion"])
    def test_iteration_limit_returns_the_point_of_its_last_row(self, family):
        # no rank cut and no escape padding after the last iteration: the
        # returned Y is the point the residues were computed at
        sdp = generators.gen_bqp_moment(*generators.random_bqp(6, 0)) \
            if family == "bqp" else _completion_30()
        sol = solve(sdp, SolverOptions(max_outer_iters=2))
        assert sol.status == "iteration-limit"
        assert sol.Y.p == sol.trace[-1].p
        assert (sol.residues.eta_p, sol.residues.eta_g) == \
            prob.primal_gap_residues(sdp, sol.Y.Y, sol.y, sol.z)

    def test_the_proof_decides_convergence(self, monkeypatch):
        # every bound the plain Cholesky proof gives holds; it runs only on
        # rows with eta_p, eta_g <= tol, a held proof ends the solve, and
        # the answer then carries the eigenvalues of its own S
        proves, proofs = spectral.proves_curvature_above, []

        def checked(op, bound, Q=None):
            proven = proves(op, bound, Q)
            if Q is None:
                vals = np.linalg.eigvalsh(op.dense)
                assert max(0.0, np.max(np.diagonal(op.dense))) \
                    <= abs(vals[-1])
                assert vals[0] >= -bound or not proven
                proofs.append(proven)
            return proven

        monkeypatch.setattr(spectral, "proves_curvature_above", checked)
        sdp = _completion_30()
        opts = SolverOptions()
        sol = solve(sdp, opts)
        assert sol.status == "converged"
        assert len(proofs) == sum(max(t.eta_p, t.eta_g) <= opts.tol
                                  for t in sol.trace)
        assert proofs[-1] and not any(proofs[:-1])
        last = sol.trace[-1]
        assert max(last.eta_p, last.eta_g) <= opts.tol
        assert np.isfinite(last.eta_d)
        assert last.eta_max == sol.residues.eta_max <= opts.tol
        # no escape follows the last iteration: its eigenvalues come alone
        vals = np.linalg.eigvalsh(sol.S.dense)
        assert (sol.lambda_min, sol.lambda_max) == (vals[0], vals[-1])
        # eigh takes another LAPACK path: equal to rounding
        assert sol.lambda_min == pytest.approx(
            np.linalg.eigh(sol.S.dense)[0][0], abs=1e-12 * (1 + vals[-1]))

    @pytest.mark.parametrize("family", ["bqp", "completion"])
    def test_one_proof_per_row(self, family, monkeypatch):
        # each row runs the proof it uses: the plain proof only where
        # eta_p, eta_g <= tol lets it converge the solve, and the proof off
        # the kept range only where the solve goes on. On these instances
        # every row but the last has eta_p or eta_g above tol
        if family == "bqp":
            sdp = generators.gen_bqp_moment(*generators.random_bqp(6, 0))
        else:
            sdp = _completion_30()
        gap, proves = prob.primal_gap_residues, spectral.proves_curvature_above
        rows, calls = [], []

        def spied_gap(*args):
            rows.append(gap(*args))
            return rows[-1]

        def spied_proves(op, bound, Q=None):
            calls.append((len(rows) - 1, Q is None))
            return proves(op, bound, Q)

        monkeypatch.setattr(prob, "primal_gap_residues", spied_gap)
        monkeypatch.setattr(spectral, "proves_curvature_above", spied_proves)
        opts = SolverOptions()
        sol = solve(sdp, opts)
        assert sol.status == "converged" and len(rows) == sol.iterations
        assert [k for k, _ in calls] == list(range(sol.iterations))
        for k, plain in calls:
            assert plain == (max(rows[k]) <= opts.tol)
        rows.clear()
        calls.clear()
        sol = solve(sdp, SolverOptions(max_outer_iters=1))
        assert sol.status == "iteration-limit" and rows[0][0] > opts.tol
        assert calls == []

    def test_one_eigvalsh_on_the_answers_slack(self, monkeypatch):
        # a row that neither converges nor escapes runs no eigensolve and
        # shows no number for eta_d or eta_max; a solve runs at most one
        # eigvalsh, on the S of its answer
        eigvalsh, decomposed = np.linalg.eigvalsh, []

        def spied_eigvalsh(a):
            decomposed.append(a)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spied_eigvalsh)
        sol = solve(_completion_30())
        assert sol.status == "converged"
        assert len(decomposed) == 1 and decomposed[0] is sol.S.dense
        skipped = [t for t in sol.trace if np.isnan(t.eta_d)]
        assert skipped
        assert all(np.isnan(t.eta_max) for t in skipped)

    def test_maxcut_rows_below_tol_run_no_eigensolve(self, monkeypatch):
        # every Max-Cut row has eta_p, eta_g <= tol, yet the middle rows
        # neither prove eta_d <= tol nor escape: they run no eigensolve,
        # and the solve's one eigvalsh is its answer's
        eigvalsh, decomposed = np.linalg.eigvalsh, []

        def spied_eigvalsh(a):
            decomposed.append(a)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spied_eigvalsh)
        opts = SolverOptions()
        sol = solve(generators.gen_maxcut(_random_graph(200, 0)), opts)
        assert sol.status == "converged" and sol.iterations > 3
        assert all(max(t.eta_p, t.eta_g) <= opts.tol for t in sol.trace)
        for t in sol.trace[1:-1]:
            assert np.isnan(t.eta_d) and np.isnan(t.eta_max)
        assert np.isfinite(sol.trace[-1].eta_d)
        assert sol.trace[-1].eta_max <= opts.tol
        assert len(decomposed) == 1 and decomposed[0] is sol.S.dense

    @pytest.mark.parametrize("family", ["bqp", "completion"])
    def test_deadline_inside_the_inner_solve(self, family, monkeypatch):
        # the clock passes the deadline during the j-th evaluation of the
        # subproblem, inside an inner solve; at most one eigensolve
        # (escape or answer) runs after it, whichever j it is
        if family == "bqp":
            sdp = generators.gen_bqp_moment(*generators.random_bqp(6, 0))
        else:
            _, entries = generators.random_completion(40, 40, 3, 1000, 1)
            sdp = generators.gen_matrix_completion(40, 40, entries)
        at, evaluations, jump, clock, after = AlmSubproblem.at, [], [0], \
            [0.0], []

        def late_at(sub, point):
            evaluations.append(point)
            if len(evaluations) == jump[0]:
                clock[0] = 1e9
            return at(sub, point)

        def spied(routine):
            eig = getattr(np.linalg, routine)

            def counted(a):
                if clock[0] > 0:
                    after.append(routine)
                return eig(a)
            monkeypatch.setattr(np.linalg, routine, counted)

        spied("eigh")
        spied("eigvalsh")
        monkeypatch.setattr(AlmSubproblem, "at", late_at)
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        assert solve(sdp).status == "converged"
        total = len(evaluations)
        for j in range(1, total, max(1, total // 25)):
            jump[0] = j
            evaluations.clear()
            after.clear()
            clock[0] = 0.0
            sol = solve(sdp, SolverOptions(max_time=1.0))
            assert sol.status in ("time-limit", "converged")
            assert len(after) <= 1
            assert np.isfinite(sol.trace[-1].eta_d)

    @pytest.mark.parametrize("limit", ["iteration-limit", "time-limit"])
    def test_a_held_proof_outranks_a_limit(self, limit, monkeypatch):
        # the limit falls on the row whose plain proof holds: that row
        # converges, and the answer and its trace row still come from the
        # eigenvalues of its own S
        proves, clock = spectral.proves_curvature_above, [0.0]

        def proving(op, bound, Q=None):
            proven = proves(op, bound, Q)
            if proven and Q is None:
                clock[0] = 1e9
            return proven

        monkeypatch.setattr(spectral, "proves_curvature_above", proving)
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        sdp = _completion_30()
        rows = solve(sdp).iterations
        clock[0] = 0.0
        if limit == "iteration-limit":
            opts = SolverOptions(max_outer_iters=rows)
        else:
            opts = SolverOptions(max_time=10.0)
        sol = solve(sdp, opts)
        assert sol.status == "converged" and sol.iterations == rows
        assert clock[0] == 1e9
        vals = np.linalg.eigvalsh(sol.S.dense)
        assert (sol.lambda_min, sol.lambda_max) == (vals[0], vals[-1])
        assert sol.residues.eta_d == prob.dual_residue(vals[0], vals[-1])
        row = sol.trace[-1]
        assert (row.eta_d, row.eta_max) == (sol.residues.eta_d,
                                            sol.residues.eta_max)

    @pytest.mark.parametrize("fails", [False, True])
    def test_limit_after_a_row_without_eta_d(self, fails, monkeypatch):
        # the solve stops right after a row that ran no eigensolve: one
        # eigvalsh fills in the answer and that row, or, when it raises,
        # the solve ends with "eigensolver-failure"
        sdp = _completion_30()
        first = next(t.k for t in solve(sdp).trace if np.isnan(t.eta_d))
        eigvalsh = np.linalg.eigvalsh

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        if fails:
            monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        sol = solve(sdp, SolverOptions(max_outer_iters=first + 1))
        assert sol.iterations == first + 1
        row = sol.trace[-1]
        if fails:
            assert sol.status == "eigensolver-failure"
            assert np.isnan(sol.residues.eta_d) and np.isnan(sol.lambda_min)
            assert np.isnan(row.eta_d) and np.isnan(row.eta_max)
            return
        assert sol.status == "iteration-limit"
        vals = eigvalsh(sol.S.dense)
        assert (sol.lambda_min, sol.lambda_max) == (vals[0], vals[-1])
        assert sol.residues.eta_d == prob.dual_residue(vals[0], vals[-1])
        assert np.isfinite(row.eta_d)
        assert (row.eta_d, row.eta_max) == (sol.residues.eta_d,
                                            sol.residues.eta_max)
        assert (sol.residues.eta_p, sol.residues.eta_g) == \
            (row.eta_p, row.eta_g)

    @pytest.mark.parametrize("routine,fails_at", [("eigh", 1),
                                                  ("eigvalsh", 1)])
    def test_eigensolver_failure_keeps_the_iterate(self, routine, fails_at,
                                                   monkeypatch):
        # a LinAlgError from either eigensolver ends the solve with the
        # iterate, its exact eta_p and eta_g, and NaN where eigenvalues are;
        # the solve's one eigvalsh is its answer's
        sdp = generators.gen_bqp_moment(*generators.random_bqp(6, 0))
        eig, calls = getattr(np.linalg, routine), []

        def failing(a):
            calls.append(a)
            if len(calls) == fails_at:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, routine, failing)
        sol = solve(sdp)
        assert sol.status == "eigensolver-failure" \
            and len(calls) == fails_at
        assert sol.S.dense is calls[-1]
        assert (sol.residues.eta_p, sol.residues.eta_g) == \
            prob.primal_gap_residues(sdp, sol.Y.Y, sol.y, sol.z)
        assert np.isnan(sol.residues.eta_d) and np.isnan(sol.lambda_min) \
            and np.isnan(sol.lambda_max)
        assert np.isnan(sol.trace[-1].eta_d)
        assert np.isnan(sol.trace[-1].eta_max)

    @pytest.mark.parametrize("family", ["bqp", "completion"])
    def test_every_eigh_is_read_by_an_escape(self, family, monkeypatch):
        # eigenvectors are computed only for an escape: every other
        # eigensolve takes eigenvalues alone. Each extreme_eigs call is one
        # eigh or one eigvalsh, and an escape row's one eigh feeds both its
        # residues and its escape. Both solves escape at least once (from
        # their random starting point)
        if family == "bqp":
            sdp = generators.gen_bqp_moment(*generators.random_bqp(6, 0))
        else:
            _, entries = generators.random_completion(40, 40, 3, 1000, 1)
            sdp = generators.gen_matrix_completion(40, 40, entries)
        events = []

        def spy(owner, name):
            routine = getattr(owner, name)

            def spied(*args):
                result = routine(*args)
                events.append((name, args, result))
                return result
            monkeypatch.setattr(owner, name, spied)

        for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                            (spectral, "extreme_eigs"),
                            (prob, "dual_residue"),
                            (alm, "escape_direction")):
            spy(owner, name)
        sol = solve(sdp)
        assert sol.status == "converged"
        names = [name for name, _, _ in events]
        assert names.count("extreme_eigs") == \
            names.count("eigh") + names.count("eigvalsh")
        eighs = [i for i, name in enumerate(names) if name == "eigh"]
        assert 0 < len(eighs) == names.count("escape_direction")
        rows = [t for t in sol.trace[:-1] if np.isfinite(t.eta_d)]
        assert len(rows) == len(eighs)
        for i, row in zip(eighs, rows):
            assert names[i + 1:i + 4] == ["extreme_eigs", "dual_residue",
                                          "escape_direction"]
            eig = events[i][2]
            (_, _, returned), (_, ends, eta_d), (_, escape_args, _) = \
                events[i + 1:i + 4]
            assert returned is eig and escape_args[0] is eig
            assert ends == (eig[0][0], eig[0][-1])
            assert row.eta_d == eta_d

    def test_every_escape_leaves_the_kept_range(self, monkeypatch):
        # near a critical point S Y = 0, so negative curvature of S inside
        # range(Y) comes from the inexact inner solve. The escape is run
        # only where the proof off the kept range fails, so each escape
        # has a column (nearly) orthogonal to the range the rank cut kept
        kept, escapes = [], []

        def spied_cut(*args):
            point = truncate_rank(*args)
            kept.append(np.linalg.svd(point.Y, full_matrices=False)[0])
            return point

        def spied_escape(*args):
            V, delta = escape_direction(*args)
            if delta > 0:
                escapes.append(np.linalg.norm(kept[-1].T @ V, axis=0))
            return V, delta

        monkeypatch.setattr(alm, "truncate_rank", spied_cut)
        monkeypatch.setattr(alm, "escape_direction", spied_escape)
        _, entries = generators.random_completion(60, 60, 2, 1200, 0)
        sdp = generators.gen_matrix_completion(60, 60, entries)
        assert sdp.manifold is ManifoldKind.FREE
        assert solve(sdp).status == "converged"
        assert escapes
        assert all(overlaps.min() <= 0.01 for overlaps in escapes)

    def test_escape_evaluates_the_escaped_point_only(self, monkeypatch):
        # the subproblem state (S~, S~ Y, K) after an escape is evaluated
        # where the escape step lands, never at the factor padded with
        # zero columns that it starts from
        at, cut, escapes, evaluated = AlmSubproblem.at, [], [], []

        def spied_cut(*args):
            point = truncate_rank(*args)
            cut.append(point)
            return point

        def spied_escape(*args):
            result = escape_direction(*args)
            if result[1] > 0:
                escapes.append((len(evaluated), cut[-1], result[0]))
            return result

        def spied_at(sub, point):
            evaluated.append(point)
            return at(sub, point)

        monkeypatch.setattr(alm, "truncate_rank", spied_cut)
        monkeypatch.setattr(alm, "escape_direction", spied_escape)
        monkeypatch.setattr(AlmSubproblem, "at", spied_at)
        _, entries = generators.random_completion(40, 40, 3, 1000, 1)
        sdp = generators.gen_matrix_completion(40, 40, entries)
        assert solve(sdp).status == "converged"
        assert escapes
        for next_at, kept, V in escapes:
            padded = FactorPoint(np.concatenate(
                [kept.Y, np.zeros(V.shape)], axis=1), kept.manifold)
            U = np.concatenate([np.zeros(kept.Y.shape), V], axis=1)
            steps = [manifolds.retract(padded, U, 0.5 ** k).Y
                     for k in range(40)]
            assert any(np.array_equal(evaluated[next_at].Y, Y)
                       for Y in steps)
        assert not any(np.any(np.all(point.Y == 0.0, axis=0))
                       for point in evaluated)

    @pytest.mark.parametrize("family", ["bqp", "completion"])
    def test_read_only_slack_gives_the_same_solve(self, family,
                                                  monkeypatch):
        # nothing writes into S once assemble_dual returns it: neither
        # proof, nor the escape's eigh, nor the answer. Both solves have
        # an escape row and rows whose plain proof fails
        if family == "bqp":
            sdp = generators.gen_bqp_moment(*generators.random_bqp(6, 0))
        else:
            _, entries = generators.random_completion(40, 40, 3, 1000, 1)
            sdp = generators.gen_matrix_completion(40, 40, entries)

        def fields(sol):
            return ([a.tobytes() for a in (sol.Y.Y, sol.y, sol.z,
                                           sol.S.dense)],
                    repr([replace(t, time=0.0) for t in sol.trace]))
        plain = solve(sdp)
        computed = [np.isfinite(t.eta_d) for t in plain.trace]
        assert any(computed[:-1]) and not all(computed)

        def read_only(*args):
            z, S = assemble_dual(*args)
            S.dense.setflags(write=False)
            return z, S
        monkeypatch.setattr(alm, "assemble_dual", read_only)
        sol = solve(sdp)
        assert not sol.S.dense.flags.writeable
        assert fields(sol) == fields(plain)

    def test_escape_runs_on_the_next_rows_subproblem(self, monkeypatch):
        # the escape row ends with the escape step on the subproblem that
        # the next row's inner solve receives, from the point it lands on
        events = []
        minimize, step = rtr.minimize, alm.escape_step

        def spied_minimize(sub, point, *args, **kwargs):
            events.append(("minimize", sub, point))
            return minimize(sub, point, *args, **kwargs)

        def spied_step(sub, point, U):
            landed = step(sub, point, U)
            events.append(("escape", sub, landed))
            return landed

        monkeypatch.setattr(rtr, "minimize", spied_minimize)
        monkeypatch.setattr(alm, "escape_step", spied_step)
        sol = solve(generators.gen_bqp_moment(*generators.random_bqp(6, 0)))
        assert sol.status == "converged"
        escapes = [i for i, event in enumerate(events)
                   if event[0] == "escape"]
        assert escapes
        for i in escapes:
            _, sub, landed = events[i]
            kind, next_sub, start = events[i + 1]
            assert kind == "minimize" and next_sub is sub and start is landed
            row = sum(event[0] == "minimize" for event in events[:i])
            assert sol.trace[row].sigma == sub.sigma

    def test_deterministic(self):
        a = solve(_unit_trace_toy(), SolverOptions(seed=3))
        b = solve(_unit_trace_toy(), SolverOptions(seed=3))
        assert a.objective == b.objective
        assert np.array_equal(a.Y.Y, b.Y.Y)
        for ta, tb in zip(a.trace, b.trace):
            assert (ta.p, ta.sigma, ta.eps, ta.eta_p, ta.eta_d, ta.eta_g,
                    ta.gradnorm, ta.inner_iters) == \
                   (tb.p, tb.sigma, tb.eps, tb.eta_p, tb.eta_d, tb.eta_g,
                    tb.gradnorm, tb.inner_iters)

    def test_complementarity_at_convergence(self, rng):
        sdp = random_problem(5, 2, ManifoldKind.UNIT_DIAGONAL, rng)
        # random b may be infeasible; pin to an attainable rhs
        Y0 = manifolds.random_point(5, 2, sdp.manifold, 0).Y
        from lrsdp import problem as prob
        sdp = SdpProblem(5, sdp.C, sdp.A, prob.apply_constraints(sdp, Y0),
                         sdp.manifold)
        sol = solve(sdp, SolverOptions(max_outer_iters=100))
        if sol.status == "converged":
            SY = sol.S.times(sol.Y.Y)
            comp = np.linalg.norm(SY) / (1.0 + np.linalg.norm(sol.Y.Y))
            assert comp <= 1e-7
