"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints "criterion N (...): PASS" on success; a failure raises
with the measured numbers. Run with -s to see every line.
"""

import time
from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from lrsdp import alm, generators as gen, manifolds, problem as prob
from lrsdp.alm import SolverOptions, solve
from lrsdp.problem import ManifoldKind


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _x_singular_ratio(Y):
    s = np.linalg.svd(Y, compute_uv=False)
    if s.size < 2 or s[0] == 0.0:
        return 0.0
    return float((s[1] / s[0]) ** 2)  # singular value ratio of X = Y Y^T


def test_criterion_01_generator_sizes():
    t0 = time.perf_counter()
    sizes = {}
    for q in (10, 20):
        Q, c = gen.random_bqp(q, 0)
        sdp = gen.gen_bqp_moment(Q, c)
        sizes[q] = (sdp.n, sdp.m)
    elapsed = time.perf_counter() - t0
    ok = sizes[10] == (56, 1256) and sizes[20] == (211, 16361) \
        and elapsed < 1.0
    _report(1, "moment relaxation sizes", ok,
            f"q=10 -> {sizes[10]}, q=20 -> {sizes[20]}, {elapsed:.2f}s")


def test_criterion_02_maxcut_exactness():
    # brute-force angle-grid oracle for the triangle relaxation value:
    # X_ij = cos(t_i - t_j) parametrizes unit-diagonal rank-2 PSD
    # matrices, and (1/4)<L, X> = (1/2) sum_e w (1 - cos(t_i - t_j))
    grid = np.linspace(0, 2 * np.pi, 181)
    best = -np.inf
    for t2 in grid:
        for t3 in grid:
            val = 0.5 * (3 - np.cos(t2) - np.cos(t3) - np.cos(t2 - t3))
            best = max(best, val)
    assert best == pytest.approx(2.25, abs=1e-3)

    results = []
    for graph, want, tol in ((gen.unit_edge_graph(), 1.0, 1e-8),
                             (gen.unit_triangle_graph(), 2.25, 1e-7)):
        t0 = time.perf_counter()
        sol = solve(gen.gen_maxcut(graph))
        elapsed = time.perf_counter() - t0
        results.append((sol.objective, want, tol, sol.residues.eta_max,
                        elapsed, sol.status))
    ok = all(status == "converged" and abs(obj - want) <= tol
             and eta <= 1e-8 and dt < 1.0
             for obj, want, tol, eta, dt, status in results)
    _report(2, "max-cut exactness", ok,
            "; ".join(f"{obj:.10f} vs {want} eta={eta:.1e} {dt:.2f}s"
                      for obj, want, tol, eta, dt, _ in results))


def _bqp_brute_force(Q, c):
    q = c.size
    signs = np.array([[1.0 if (k >> i) & 1 else -1.0 for i in range(q)]
                      for k in range(2 ** q)])
    vals = np.einsum("ki,ij,kj->k", signs, Q, signs) + signs @ c
    return float(vals.min())


def test_criterion_03_bqp_tightness():
    t0 = time.perf_counter()
    cases = [(q, seed) for seed in range(7) for q in (6, 8, 10)][:20]
    rank1 = tight = 0
    worst = 0.0
    for q, seed in cases:
        Q, c = gen.random_bqp(q, 1000 + seed)
        sol = solve(gen.gen_bqp_moment(Q, c))
        assert sol.status == "converged"
        if _x_singular_ratio(sol.Y.Y) < 1e-6:
            rank1 += 1
            best = _bqp_brute_force(Q, c)
            rel = abs(sol.objective - best) / max(1.0, abs(best))
            worst = max(worst, rel)
            if rel <= 1e-6:
                tight += 1
    elapsed = time.perf_counter() - t0
    ok = rank1 >= 18 and tight == rank1 and elapsed < 60.0
    _report(3, "moment relaxation tightness", ok,
            f"rank-1 {rank1}/20, tight {tight}/{rank1}, "
            f"worst rel err {worst:.1e}, {elapsed:.1f}s")


def test_criterion_04_certification():
    # all five KKT conditions on a spread of converged runs:
    # A(X)=b, B(X)=d (eta_p), X PSD (by construction), S PSD (eta_d),
    # X S = 0 (complementarity via ||S Y||), plus the gap eta_g
    runs = []
    runs.append(solve(gen.gen_maxcut(gen.unit_edge_graph())))
    runs.append(solve(gen.gen_maxcut(gen.unit_triangle_graph())))
    for seed in (1, 2):
        Q, c = gen.random_bqp(8, seed)
        runs.append(solve(gen.gen_bqp_moment(Q, c)))
    M, entries = gen.random_completion(6, 6, 1, 36, 3)
    runs.append(solve(gen.gen_matrix_completion(6, 6, entries)))
    runs.append(solve(gen.gen_quartic_sphere(3, gen.random_quartic(3, 4))))

    worst_eta = worst_comp = 0.0
    converged = 0
    for sol in runs:
        if sol.status != "converged":
            continue
        converged += 1
        worst_eta = max(worst_eta, sol.residues.eta_max)
        comp = np.linalg.norm(sol.S.times(sol.Y.Y)) \
            / (1.0 + np.linalg.norm(sol.Y.Y))
        worst_comp = max(worst_comp, comp)
    ok = converged == len(runs) and worst_eta <= 1e-8 \
        and worst_comp <= 1e-7
    _report(4, "KKT certification", ok,
            f"{converged}/{len(runs)} converged, worst eta "
            f"{worst_eta:.1e}, worst ||SY|| {worst_comp:.1e}")


def test_criterion_05_geometry_suite():
    from conftest import ALL_MANIFOLDS, dense_bstar, dense_phi_grad, \
        manifold_error, random_problem
    from lrsdp.alm import AlmSubproblem
    from lrsdp.manifolds import FactorPoint

    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_proj = worst_sym = worst_ident = 0.0
    fd_ok = True
    for manifold in ALL_MANIFOLDS:
        for trial in range(100):
            n, p, m = 6, 3, 2
            sdp = random_problem(n, m, manifold, rng)
            y = rng.standard_normal(m)
            sigma = float(rng.uniform(0.5, 4.0))
            sub = AlmSubproblem(sdp, y, sigma)
            point = manifolds.random_point(n, p, manifold,
                                           int(rng.integers(2**31)))
            U = rng.standard_normal((n, p))
            V = rng.standard_normal((n, p))

            # projector idempotency and self-adjointness
            PU = manifolds.project_tangent(point, U)
            worst_proj = max(worst_proj, float(np.max(np.abs(
                manifolds.project_tangent(point, PU) - PU))))
            worst_proj = max(worst_proj, abs(
                float(np.sum(PU * V))
                - float(np.sum(U * manifolds.project_tangent(point, V)))))

            # retraction feasibility
            assert manifold_error(manifolds.retract(point, U, 0.3)) < 1e-12

            state = sub.at(point)
            # Hessian self-adjointness on tangent vectors
            TU = manifolds.project_tangent(point, U)
            TV = manifolds.project_tangent(point, V)
            lhs = float(np.sum(state.hess_vec(TU) * TV))
            rhs = float(np.sum(TU * state.hess_vec(TV)))
            worst_sym = max(worst_sym,
                            abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

            # gradient finite differences, second-order decay (subsample)
            if trial % 10 == 0:
                from conftest import dense_alm_cost
                D = TU / max(np.linalg.norm(TU), 1e-12)
                slope = float(np.sum(state.grad * D))
                rems = []
                for t in (1e-3, 5e-4):
                    c = dense_alm_cost(
                        sdp, y, sigma, manifolds.retract(point, D, t).Y)
                    rems.append(abs(c - state.cost - t * slope))
                if rems[0] / max(rems[1], 1e-18) < 2.5:
                    fd_ok = False

            # curvature identity for escape blocks: <U,Hess U>=2Tr(U^T S U)
            base = manifolds.random_point(n, 2, manifold,
                                          int(rng.integers(2**31)))
            Yp = np.concatenate([base.Y, np.zeros((n, 1))], axis=1)
            ep = FactorPoint(Yp, manifold)
            eU = np.concatenate([np.zeros((n, 2)),
                                 rng.standard_normal((n, 1))], axis=1)
            est = sub.at(ep)
            S = dense_phi_grad(sdp, y, sigma, Yp) \
                - dense_bstar(manifold, est.z, n)
            l2 = float(np.sum(eU * est.hess_vec(eU)))
            r2 = 2.0 * float(np.trace(eU.T @ S @ eU))
            worst_ident = max(worst_ident,
                              abs(l2 - r2) / max(1.0, abs(l2), abs(r2)))
    elapsed = time.perf_counter() - t0
    ok = worst_proj < 1e-12 and worst_sym <= 1e-10 \
        and worst_ident <= 1e-10 and fd_ok and elapsed < 10.0
    _report(5, "geometry suite", ok,
            f"proj {worst_proj:.1e}, hess-sym {worst_sym:.1e}, "
            f"curvature identity {worst_ident:.1e}, {elapsed:.1f}s")


def test_criterion_06_escape_suite():
    from lrsdp.alm import (AlmSubproblem, assemble_dual, escape_direction,
                           escape_step)
    from lrsdp.manifolds import FactorPoint
    from lrsdp.problem import SdpProblem, SparseSymMatrix
    from lrsdp.spectral import extreme_eigs

    # worked 2x2 unit-trace case: saddle at Y = e1 with S = diag(0, -2)
    C = SparseSymMatrix.from_triplets(2, [(0, 0, 1.0), (1, 1, -1.0)])
    sdp = SdpProblem(2, C, [], np.zeros(0), ManifoldKind.UNIT_TRACE)
    point = FactorPoint(np.array([[1.0], [0.0]]), ManifoldKind.UNIT_TRACE)
    z, S = assemble_dual(AlmSubproblem(sdp, np.zeros(0), 1.0).at(point))
    cases = [(sdp, point, S, np.diag([0.0, -2.0]))]

    # constructed random saddles: diagonal C with known negative slack
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = 5
        d = np.sort(rng.standard_normal(n))
        C = SparseSymMatrix.from_triplets(n, [(i, i, float(d[i]))
                                              for i in range(n)])
        sdp_i = SdpProblem(n, C, [], np.zeros(0), ManifoldKind.UNIT_TRACE)
        e = np.zeros((n, 1))
        e[-1, 0] = 1.0  # critical point at the largest eigenvalue
        pt = FactorPoint(e, ManifoldKind.UNIT_TRACE)
        _, S_i = assemble_dual(AlmSubproblem(sdp_i, np.zeros(0), 1.0).at(pt))
        cases.append((sdp_i, pt, S_i, np.diag(d - d[-1])))

    worst_orth = worst_curv = 0.0
    all_escaped = True
    for sdp_i, pt, S_i, S_dense in cases:
        assert np.allclose(S_i.dense, S_dense, atol=1e-12)
        vals = np.linalg.eigvalsh(S_dense)
        n_neg = int(np.sum(vals < -1e-10))
        V, delta = escape_direction(extreme_eigs(S_i, True),
                                    delta_ne=10, tol_escape=1e-10)
        if n_neg == 0:
            all_escaped = all_escaped and delta == 0
            continue
        all_escaped = all_escaped and delta == min(n_neg, 10)
        Yp = np.concatenate([pt.Y, np.zeros((pt.n, delta))], axis=1)
        padded = FactorPoint(Yp, pt.manifold)
        U = np.concatenate([np.zeros(pt.Y.shape), V], axis=1)
        sub = AlmSubproblem(sdp_i, np.zeros(0), 1.0)
        state = sub.at(padded)
        worst_orth = max(worst_orth, abs(float(np.sum(U * state.grad))))
        curv = float(np.sum(U * state.hess_vec(U)))
        want = 2.0 * float(np.sum(vals[:delta]))
        worst_curv = max(worst_curv, abs(curv - want))

        # line search along U strictly decreases the subproblem cost
        stepped = escape_step(sub, pt, V)
        all_escaped = all_escaped and sub.cost(stepped) < state.cost
    ok = all_escaped and worst_orth <= 1e-10 and worst_curv <= 1e-8
    _report(6, "saddle escape suite", ok,
            f"<U,grad> {worst_orth:.1e}, curvature err {worst_curv:.1e}")


def test_criterion_07_matrix_completion():
    t0 = time.perf_counter()
    # fully sampled rank-1 3x3
    rng = np.random.default_rng(2)
    M = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    i, j = np.divmod(np.arange(9), 3)
    sol = solve(gen.gen_matrix_completion(3, 3, (i, j, M[i, j])))
    Z = (sol.Y.Y @ sol.Y.Y.T)[:3, 3:]
    err_full = float(np.max(np.abs(Z - M)))

    # 80%-sampled rank-1 20x20
    M2, entries2 = gen.random_completion(20, 20, 1, 320, 7)
    sol2 = solve(gen.gen_matrix_completion(20, 20, entries2))
    Z2 = (sol2.Y.Y @ sol2.Y.Y.T)[:20, 20:]
    err_part = float(np.linalg.norm(Z2 - M2) / np.linalg.norm(M2))
    elapsed = time.perf_counter() - t0
    ok = sol.status == "converged" and sol2.status == "converged" \
        and err_full <= 1e-6 and err_part <= 1e-4 and elapsed < 10.0
    _report(7, "matrix completion recovery", ok,
            f"full {err_full:.1e}, 80% sampled {err_part:.1e}, "
            f"{elapsed:.1f}s")


def _poly_values(coeffs, X):
    out = np.zeros(X.shape[0])
    for mono, cf in coeffs.items():
        if mono:
            out += cf * np.prod(X[:, list(mono)], axis=1)
        else:
            out += cf
    return out


def _poly_by_degree(coeffs):
    """Monomials grouped by degree, as (index array k x d, coefficients k)."""
    groups = {}
    for mono, cf in coeffs.items():
        monos, cfs = groups.setdefault(len(mono), ([], []))
        monos.append(mono)
        cfs.append(cf)
    return [(np.array(monos, dtype=np.intp).reshape(len(monos), deg),
             np.array(cfs)) for deg, (monos, cfs) in groups.items()]


def _poly_value_grad(groups, x):
    val = 0.0
    g = np.zeros_like(x)
    for idx, cf in groups:
        xs = x[idx]
        val += float(cf @ np.prod(xs, axis=1))
        for pos in range(idx.shape[1]):
            rest = np.prod(np.delete(xs, pos, axis=1), axis=1)
            g += np.bincount(idx[:, pos], weights=cf * rest,
                             minlength=x.size)
    return val, g


def _sphere_polish(coeffs, x0):
    """Local minimization of the polynomial on the unit sphere via BFGS on
    the scale-invariant composite u -> f(u / ||u||)."""
    groups = _poly_by_degree(coeffs)

    def fun(u):
        r = np.linalg.norm(u)
        x = u / r
        val, gx = _poly_value_grad(groups, x)
        return val, (gx - float(gx @ x) * x) / r

    res = scipy_minimize(fun, x0, jac=True, method="BFGS",
                         options={"gtol": 1e-12, "maxiter": 2000})
    return float(res.fun)


def test_criterion_08_quartic_sphere():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    lower_bound_ok = polish_ok = True
    worst_gap = -np.inf
    for q in (4, 6):
        for seed in range(5):
            coeffs = gen.random_quartic(q, 50 + seed)
            sol = solve(gen.gen_quartic_sphere(q, coeffs))
            assert sol.status == "converged"
            X = rng.standard_normal((10**5, q))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            vals = _poly_values(coeffs, X)
            order = np.argsort(vals)
            sampled = float(vals[order[0]])
            lower_bound_ok = lower_bound_ok \
                and sol.objective <= sampled + 1e-7
            worst_gap = max(worst_gap, sol.objective - sampled)
            if _x_singular_ratio(sol.Y.Y) < 1e-6:
                # dense local polish seeded from the best sampled points
                # (the single best sample can sit in a slightly worse
                # local basin)
                polished = min(_sphere_polish(coeffs, X[i])
                               for i in order[:20])
                polish_ok = polish_ok \
                    and abs(sol.objective - polished) <= 1e-5
    elapsed = time.perf_counter() - t0
    ok = lower_bound_ok and polish_ok and elapsed < 60.0
    _report(8, "quartic sphere minimization", ok,
            f"max (solver - sampled min) {worst_gap:.1e}, "
            f"polish agreement {polish_ok}, {elapsed:.1f}s")


def test_criterion_09_penalty_and_rank_dynamics():
    grew = shrank = False
    sigma_bounds_ok = True
    profiles = []
    for seed in (104, 1000, 1003):
        Q, c = gen.random_bqp(10, seed)
        opts = SolverOptions()
        sol = solve(gen.gen_bqp_moment(Q, c), opts)
        assert sol.status == "converged"
        sigmas = [t.sigma for t in sol.trace]
        sigma_bounds_ok = sigma_bounds_ok and all(
            alm.SIGMA_MIN <= s <= alm.SIGMA_MAX for s in sigmas)
        grew = grew or any(b > a for a, b in zip(sigmas, sigmas[1:]))
        shrank = shrank or any(b < a for a, b in zip(sigmas, sigmas[1:]))
        ps = [t.p for t in sol.trace]
        if _x_singular_ratio(sol.Y.Y) < 1e-6:
            profiles.append((max(ps), ps[-1]))
    # rise-and-fall: the factorization grows well past its final value and
    # collapses toward the solution rank on rank-1 instances, with at
    # least one run ending at the minimal profile
    rise_fall = bool(profiles) \
        and all(mx > final for mx, final in profiles) \
        and any(final <= 2 for _, final in profiles)
    ok = sigma_bounds_ok and grew and shrank and rise_fall
    _report(9, "penalty and rank dynamics", ok,
            f"sigma in bounds {sigma_bounds_ok}, grew {grew}, "
            f"shrank {shrank}, (max p, final p) {profiles}")


def test_criterion_10_determinism():
    def run():
        Q, c = gen.random_bqp(8, 77)
        sol = solve(gen.gen_bqp_moment(Q, c), SolverOptions(seed=5))
        trace = [(t.k, t.p, t.sigma, t.eps, t.eta_p, t.eta_d, t.eta_g,
                  t.eta_max, t.gradnorm, t.inner_iters) for t in sol.trace]
        return sol.objective, sol.Y.Y.copy(), trace

    o1, Y1, t1 = run()
    o2, Y2, t2 = run()
    # by repr: a row without eta_d holds NaN, which equals no float
    ok = o1 == o2 and np.array_equal(Y1, Y2) and repr(t1) == repr(t2)
    _report(10, "bitwise determinism", ok,
            f"objective {o1!r} reproduced {o1 == o2}")
