"""Trust-region inner solver: tCG oracles and minimization behavior."""

import dataclasses
import time
import warnings

import numpy as np
import pytest

from lrsdp import generators, manifolds, rtr
from lrsdp.alm import SolverOptions, solve
from lrsdp.manifolds import FactorPoint, RetractionError, retract
from lrsdp.problem import ManifoldKind, SdpProblem
from lrsdp.rtr import RtrReport, minimize, tcg


class _QuadraticModel:
    """Euclidean quadratic 0.5 y^T H y + g^T y on the free factor, flattened
    over an (n, 1) point."""

    def __init__(self, H, g):
        self.H = H
        self.g = g

    def cost(self, point):
        y = point.Y[:, 0]
        return float(0.5 * y @ self.H @ y + self.g @ y)

    def at(self, point):
        model = self

        class State:
            cost = model.cost(point)
            grad = (model.H @ point.Y[:, 0] + model.g)[:, None]

            def hess_vec(self, U):
                return (model.H @ U[:, 0])[:, None]

        return State()


def _old_minimize(model, point, grad_tol, max_iters):
    """The trust-region loop that runs tCG afresh, with the state's
    preconditioner, after every rejected step (no deadline): the oracle
    of the retry."""
    n, p = point.Y.shape
    radius = 0.1 * np.sqrt(n * p)
    max_radius = 10.0 * radius
    state = model.at(point)
    iters = 0
    reason = "max-iters"
    gradnorm = np.sqrt(rtr._inner(state.grad, state.grad))
    best_point, best_cost, best_gradnorm = point, state.cost, gradnorm
    while iters < max_iters:
        if gradnorm <= grad_tol:
            reason = "tolerance"
            break
        if radius < rtr._RADIUS_COLLAPSE:
            reason = "radius-collapse"
            break
        iters += 1
        step, stop, model_value = tcg(state.grad, state.hess_vec, radius,
                                      precon=getattr(state, "precon", None))
        pred = -model_value
        try:
            trial = retract(point, step)
            trial_cost = model.cost(trial)
        except RetractionError:
            radius *= 0.25
            continue
        reg = 1e-13 * max(1.0, abs(state.cost))
        rho = (state.cost - trial_cost + reg) / (pred + reg)
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and stop in ("boundary", "negative-curvature"):
            radius = min(2.0 * radius, max_radius)
        if rho > rtr._RHO_PRIME:
            point = trial
            state = model.at(point)
            gradnorm = np.sqrt(rtr._inner(state.grad, state.grad))
            if state.cost <= best_cost:
                best_point, best_cost = point, state.cost
                best_gradnorm = gradnorm
    if gradnorm <= grad_tol:
        reason = "tolerance"
    elif state.cost > best_cost:
        point, gradnorm = best_point, best_gradnorm
    return point, RtrReport(gradnorm=float(gradnorm), iterations=iters,
                            reason=reason)


def _old_tcg(grad, hess_vec, radius, kappa=0.1, theta=1.0, max_iters=None,
              norms=None):
    """Steihaug-Toint tCG with the residual rule alone, no floor and no
    list of products: the oracle of a zero floor. <eta, d> and <d, d> come
    from the textbook CG recurrences (Conn, Gould and Toint 2000, Alg.
    7.5.1, with M = I). Appends the residual norm of every CG iterate it
    reaches to ``norms`` when given."""
    if max_iters is None:
        max_iters = grad.size
    eta, Heta = np.zeros_like(grad), np.zeros_like(grad)
    r = grad.copy()
    d = -r
    rr = rtr._inner(r, r)
    r0_norm = np.sqrt(rr)
    target = r0_norm * min(kappa, r0_norm ** theta)
    e_norm2, e_d, d_norm2 = 0.0, 0.0, rr

    def result(s, Hs, reason):
        return s, reason, rtr._inner(grad, s) + 0.5 * rtr._inner(s, Hs)

    for _ in range(max_iters):
        Hd = hess_vec(d)
        dHd = rtr._inner(d, Hd)
        alpha = rr / dHd if dHd > 0 else 0.0
        new_e_norm2 = e_norm2 + 2 * alpha * e_d + alpha * alpha * d_norm2
        if dHd <= 0 or new_e_norm2 >= radius * radius:
            tau = rtr._boundary_step(e_norm2, e_d, d_norm2, radius)
            return result(eta + tau * d, Heta + tau * Hd,
                          "boundary" if dHd > 0 else "negative-curvature")
        eta = eta + alpha * d
        Heta = Heta + alpha * Hd
        e_norm2 = new_e_norm2
        r = r + alpha * Hd
        rr_new = rtr._inner(r, r)
        if norms is not None:
            norms.append(np.sqrt(rr_new))
        if np.sqrt(rr_new) <= target:
            return result(eta, Heta, "converged")
        beta = rr_new / rr
        d = -r + beta * d
        e_d = beta * (e_d + alpha * d_norm2)
        d_norm2 = rr_new + beta * beta * d_norm2
        rr = rr_new
    return result(eta, Heta, "max-cg-iters")


def _counted(hess_vec, calls):
    """``hess_vec`` that appends each argument to the list ``calls``."""
    def counted(U):
        calls.append(U)
        return hess_vec(U)
    return counted


class _LoggedModel:
    """A quadratic whose Hessian products under-report its curvature
    ``scale``-fold, so tCG overshoots and steps are rejected; every call
    is logged in order as "at", "cost" or "hess_vec". Its states carry
    the preconditioner ``precon``."""

    def __init__(self, H, g, scale, precon=None):
        self.quadratic = _QuadraticModel(H, g)
        self.scale = scale
        self.precon = precon
        self.log = []

    def cost(self, point):
        self.log.append("cost")
        return self.quadratic.cost(point)

    def at(self, point):
        self.log.append("at")
        state = self.quadratic.at(point)
        model = self

        class Logged:
            cost = state.cost
            grad = state.grad
            precon = model.precon

            def hess_vec(self, U):
                model.log.append("hess_vec")
                return state.hess_vec(U) / model.scale

        logged = Logged()
        logged.precon = model.precon
        return logged


def _spd(rng, n, cond=10.0):
    """A random SPD n x n matrix with condition number ``cond``."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.geomspace(cond ** -0.5, cond ** 0.5, n)) @ Q.T


class TestTcg:
    def test_interior_matches_direct_solve(self, rng):
        # SPD model with a generous radius: tCG returns the Newton step
        Q = rng.standard_normal((6, 6))
        H = Q @ Q.T + 6 * np.eye(6)
        g = rng.standard_normal((6, 1))
        step, reason, _ = tcg(g, lambda U: H @ U, radius=100.0, kappa=1e-10)
        assert reason == "converged"
        assert np.allclose(step, -np.linalg.solve(H, g), atol=1e-8)

    def test_boundary_stop(self, rng):
        H = np.eye(4)
        g = np.ones((4, 1))
        step, reason, _ = tcg(g, lambda U: H @ U, radius=0.5)
        assert reason == "boundary"
        assert np.linalg.norm(step) == pytest.approx(0.5, rel=1e-12)

    def test_negative_curvature_stop(self, rng):
        H = np.diag([1.0, -2.0])
        g = np.array([[1.0], [0.3]])
        step, reason, _ = tcg(g, lambda U: H @ U, radius=10.0)
        assert reason == "negative-curvature"
        assert np.linalg.norm(step) == pytest.approx(10.0, rel=1e-12)

    def test_model_decrease(self, rng):
        # any tCG output must decrease the quadratic model
        for _ in range(20):
            Q = rng.standard_normal((5, 5))
            H = 0.5 * (Q + Q.T)
            g = rng.standard_normal((5, 1))
            step, _, _ = tcg(g, lambda U: H @ U,
                             radius=float(rng.uniform(0.1, 5.0)))
            dec = float(g[:, 0] @ step[:, 0]
                        + 0.5 * step[:, 0] @ H @ step[:, 0])
            assert dec <= 1e-12

    def test_max_iters_cap(self, rng):
        H = np.diag(np.linspace(1, 1e4, 30))
        g = np.ones((30, 1))
        step, reason, _ = tcg(g, lambda U: H @ U, radius=1e6, kappa=1e-14,
                              max_iters=2)
        assert reason == "max-cg-iters"

    @pytest.mark.parametrize("reason,H,g,kw", [
        ("converged", np.diag([2.0, 3.0, 5.0]), np.ones((3, 1)),
         dict(radius=100.0, kappa=1e-10)),
        ("boundary", np.eye(4), np.ones((4, 1)), dict(radius=0.5)),
        ("negative-curvature", np.diag([1.0, -2.0]),
         np.array([[1.0], [0.3]]), dict(radius=10.0)),
        ("max-cg-iters", np.diag(np.linspace(1, 1e4, 30)), np.ones((30, 1)),
         dict(radius=1e6, kappa=1e-14, max_iters=2)),
    ])
    def test_model_value_matches_fresh_evaluation(self, reason, H, g, kw):
        step, got_reason, model = tcg(g, lambda U: H @ U, **kw)
        assert got_reason == reason
        fresh = float(g[:, 0] @ step[:, 0]
                      + 0.5 * step[:, 0] @ H @ step[:, 0])
        assert model == pytest.approx(fresh, rel=1e-12, abs=1e-14)

    def test_identity_preconditioner_matches_plain(self, rng, monkeypatch):
        # precon=None is P = I: the same recurrences and, for a P = I
        # whose products are exact, the same bits. Without a precon, <z, r>
        # is the <r, r> already taken: one inner product fewer per precon
        # call
        inner, calls = rtr._inner, {"inner": 0, "precon": 0}

        def counted(A, B):
            calls["inner"] += 1
            return inner(A, B)

        def identity(R):
            calls["precon"] += 1
            return 1.0 * R

        monkeypatch.setattr(rtr, "_inner", counted)
        seen = set()
        for trial in range(60):
            n = int(rng.integers(2, 10))
            Q = rng.standard_normal((n, n))
            H = Q @ Q.T + 0.1 * np.eye(n) if trial % 2 else 0.5 * (Q + Q.T)
            g = rng.standard_normal((n, 2))
            radius = float(10.0 ** rng.uniform(-1.0, 2.0))
            calls.update(inner=0, precon=0)
            plain = tcg(g, lambda U: H @ U, radius, kappa=1e-3)
            plain_inner = calls["inner"]
            calls.update(inner=0)
            ident = tcg(g, lambda U: H @ U, radius, kappa=1e-3,
                        precon=identity)
            assert calls["inner"] - plain_inner == calls["precon"] > 0
            assert ident[1] == plain[1]
            assert np.array_equal(ident[0], plain[0])
            assert ident[2] == plain[2]
            seen.add(plain[1])
        assert seen == {"boundary", "negative-curvature", "converged"}

    def test_preconditioned_stops_on_the_m_norm_boundary(self, rng):
        # with P SPD, boundary and negative-curvature stops land on
        # <s, P^-1 s> = radius^2, and the model value is m(s) itself; H
        # is well conditioned, since <s, M s> comes from recurrences
        _check_boundary_stops(rng, preconditioned=True)

    def test_plain_stops_on_the_euclidean_boundary(self, rng):
        # the same without a preconditioner: M = I, so the recurrences
        # must land on ||s|| = radius
        _check_boundary_stops(rng, preconditioned=False)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            tcg(np.ones((2, 1)), lambda U: U, radius=0.0)

    @pytest.mark.parametrize("grad,floor", [
        (np.zeros((3, 2)), 0.0),
        (np.full((3, 2), 0.1), 1.0),  # ||grad|| ~ 0.245 is below the floor
    ])
    def test_start_at_target_returns_zero_step(self, grad, floor):
        # the zero step already meets the stop rule: no product, no NaN
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step, reason, model = tcg(grad, _counted(lambda U: U, calls),
                                      1.0, floor=floor)
        assert reason == "converged" and model == 0.0 and not calls
        assert step.shape == grad.shape and not step.any()

    def test_floor_stops_at_first_iterate_below_it(self):
        # on an SPD diagonal quadratic, a floor equal to the residual of
        # CG iterate j stops tCG "converged" at the first iterate at or
        # below it, with that iterate's bits and one product per iterate
        H = np.linspace(1.0, 100.0, 40)[:, None]
        g = np.ones((40, 1))
        norms, plain = [], []
        want = _old_tcg(g, _counted(lambda U: H * U, plain), 1e6,
                        norms=norms)
        assert want[1] == "converged"
        target = np.sqrt(40.0) * 0.1
        above = [k for k, rho in enumerate(norms) if rho > target]
        assert len(above) >= 4
        for j in above[1:]:
            floor = norms[j]
            first = min(k for k, rho in enumerate(norms) if rho <= floor)
            calls = []
            step, reason, _ = tcg(g, _counted(lambda U: H * U, calls), 1e6,
                                  floor=floor)
            assert reason == "converged"
            assert len(calls) == first + 1 < len(plain)
            capped = _old_tcg(g, lambda U: H * U, 1e6, max_iters=first + 1)
            assert np.array_equal(step, capped[0])

    def test_recorded_retries_equal_fresh_runs(self, rng):
        # a run at any radius R 4^-k that minimize can retry at, given the
        # Hessian products of a run at R, returns what a fresh run at that
        # radius returns, bit for bit and with no product, whatever stop
        # the fresh run makes, with or without a floor; with a zero floor,
        # the fresh run is the residual rule's alone
        _check_recorded_retries(rng, 80, preconditioned=False)

    def test_recorded_retries_with_a_preconditioner(self, rng):
        # the same with an SPD preconditioner and the M-norm radius
        _check_recorded_retries(rng, 200, preconditioned=True)


def _check_boundary_stops(rng, preconditioned):
    seen = set()
    for trial in range(60):
        n = int(rng.integers(3, 10))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (Q * rng.uniform(0.5 if trial % 2 else -2.0, 5.0, n)) @ Q.T
        P = _spd(rng, n) if preconditioned else np.eye(n)
        kw = {"precon": lambda R: P @ R} if preconditioned else {}
        M = np.linalg.inv(P)
        g = rng.standard_normal((n, 2))
        radius = float(10.0 ** rng.uniform(-1.0, 1.0))
        step, reason, model = tcg(g, lambda U: H @ U, radius, **kw)
        fresh = float(np.sum(g * step) + 0.5 * np.sum(step * (H @ step)))
        assert model == pytest.approx(fresh, rel=1e-12, abs=1e-14)
        if reason in ("boundary", "negative-curvature"):
            m_norm = np.sqrt(np.sum(step * (M @ step)))
            assert m_norm == pytest.approx(radius, rel=1e-12)
            seen.add(reason)
    assert seen == {"boundary", "negative-curvature"}


def _check_recorded_retries(rng, trials, preconditioned):
    seen, floor_seen = set(), set()
    for trial in range(trials):
        n = int(rng.integers(2, 10))
        Q = rng.standard_normal((n, n))
        H = Q @ Q.T + 0.1 * np.eye(n) if trial % 2 else 0.5 * (Q + Q.T)
        P = _spd(rng, n) if preconditioned else None
        kw = {"precon": lambda R: P @ R} if preconditioned else {}
        g = rng.standard_normal((n, 2))
        radius = float(10.0 ** rng.uniform(-2.0, 2.0))
        kw.update({"max_iters": int(rng.integers(1, n))}
                  if trial % 5 == 0 else {"kappa": 1e-3})
        floor = float(np.linalg.norm(g) * rng.uniform(0.01, 0.5)) \
            if trial % 3 == 0 else 0.0
        products, first = [], []
        tcg(g, _counted(lambda U: H @ U, first), radius, floor=floor,
            products=products, **kw)
        assert len(products) == len(first)
        kept = list(products)
        level = radius / 4
        while level >= rtr._RADIUS_COLLAPSE:
            calls = []
            step, reason, model = tcg(g, _counted(lambda U: H @ U, calls),
                                      level, floor=floor, products=products,
                                      **kw)
            assert not calls
            assert len(products) == len(kept)
            assert all(a is b for a, b in zip(products, kept))
            want = tcg(g, lambda U: H @ U, level, floor=floor, **kw)
            assert np.array_equal(step, want[0])
            assert reason == want[1] and model == want[2]
            if not floor and not preconditioned:
                old = _old_tcg(g, lambda U: H @ U, level, **kw)
                assert np.array_equal(step, old[0])
                assert (reason, model) == old[1:]
            (floor_seen if floor else seen).add(reason)
            level /= 4
    assert seen == {"boundary", "negative-curvature", "converged",
                    "max-cg-iters"}
    assert {"boundary", "converged"} <= floor_seen


class TestMinimize:
    def test_spd_quadratic_to_tolerance(self, rng):
        Q = rng.standard_normal((8, 8))
        H = Q @ Q.T + 8 * np.eye(8)
        g = rng.standard_normal(8)
        model = _QuadraticModel(H, g)
        start = FactorPoint(rng.standard_normal((8, 1)), ManifoldKind.FREE)
        point, report, _ = minimize(model, start, 1e-9, 200)
        assert report.reason == "tolerance"
        assert np.allclose(point.Y[:, 0], -np.linalg.solve(H, g), atol=1e-7)

    def test_monotone_decrease(self, rng):
        Q = rng.standard_normal((6, 6))
        H = 0.5 * (Q + Q.T)  # indefinite
        g = rng.standard_normal(6)
        model = _QuadraticModel(H, g)
        start = FactorPoint(rng.standard_normal((6, 1)), ManifoldKind.FREE)
        point, report, _ = minimize(model, start, 1e-9, 25)
        assert model.cost(point) <= model.cost(start) + 1e-12

    def test_deadline_stops_before_the_next_step(self, rng, monkeypatch):
        # a clock that advances one second per reading: readings 1, 2 and 3
        # start a step, reading 4 is past the deadline 3.5
        H = np.diag([1.0, -1.0, 2.0])  # unbounded below: never converges
        model = _QuadraticModel(H, np.ones(3))
        start = FactorPoint(np.zeros((3, 1)), ManifoldKind.FREE)
        _, free, _ = minimize(model, start, 1e-12, 10)
        assert free.iterations == 10 and free.reason == "max-iters"
        readings = iter(range(1, 100))
        monkeypatch.setattr(time, "perf_counter", lambda: next(readings))
        _, report, _ = minimize(model, start, 1e-12, 10, deadline=3.5)
        assert report.iterations == 3 and report.reason == "time-limit"

    def test_returns_the_state_of_its_point(self, rng):
        # the state returned is the model's own "at" of the returned point
        class Recording(_QuadraticModel):
            def at(self, point):
                state = super().at(point)
                self.states.append((point, state))
                return state

        H = np.diag([1.0, 2.0, 3.0])
        model = Recording(H, np.ones(3))
        model.states = []
        start = FactorPoint(rng.standard_normal((3, 1)), ManifoldKind.FREE)
        point, report, state = minimize(model, start, 1e-9, 200)
        assert report.reason == "tolerance"
        assert model.states[-1][0] is point and model.states[-1][1] is state

    def test_returns_the_state_kept_with_the_best_point(self, rng):
        # states away from the start report a cost 1e3 above the true one,
        # so every accepted step ends uphill of the start: minimize returns
        # the start, with the state evaluated there
        class Uphill(_QuadraticModel):
            def at(self, point):
                state = super().at(point)
                if point is not start:
                    state.cost += 1e3
                self.states.append((point, state))
                return state

        model = Uphill(np.diag([1.0, 2.0, 3.0]), np.ones(3))
        model.states = []
        start = FactorPoint(rng.standard_normal((3, 1)), ManifoldKind.FREE)
        point, report, state = minimize(model, start, 1e-12, 3)
        assert len(model.states) > 1 and report.reason == "max-iters"
        assert point is start and state is model.states[0][1]

    def test_zero_iterations_at_optimum(self, rng):
        H = np.eye(3)
        model = _QuadraticModel(H, np.zeros(3))
        start = FactorPoint(np.zeros((3, 1)), ManifoldKind.FREE)
        point, report, _ = minimize(model, start, 1e-8, 200)
        assert report.iterations == 0
        assert report.reason == "tolerance"

    def test_hess_vec_only_inside_tcg(self, rng, monkeypatch):
        # the predicted decrease comes from tCG's model value, so minimize
        # itself runs no Hessian-vector product
        calls = {"model": 0, "tcg": 0}
        model = _QuadraticModel(np.diag(np.linspace(1.0, 50.0, 12)),
                                rng.standard_normal(12))
        at = model.at

        def counted_at(point):
            state = at(point)
            hess_vec = state.hess_vec

            def counted(U):
                calls["model"] += 1
                return hess_vec(U)
            state.hess_vec = counted
            return state

        def counted_tcg(grad, hess_vec, *args, **kwargs):
            def counted(U):
                calls["tcg"] += 1
                return hess_vec(U)
            return tcg(grad, counted, *args, **kwargs)

        monkeypatch.setattr(model, "at", counted_at)
        monkeypatch.setattr(rtr, "tcg", counted_tcg)
        start = FactorPoint(rng.standard_normal((12, 1)), ManifoldKind.FREE)
        _, report, _ = minimize(model, start, 1e-9, 200)
        assert report.iterations > 1
        assert calls["tcg"] > 0
        assert calls["model"] == calls["tcg"]

    @pytest.mark.parametrize("preconditioned", [False, True],
                             ids=["none", "spd"])
    def test_retry_runs_no_hessian_product(self, preconditioned, rng):
        # a rejected step is retried over the Hessian products of the tCG
        # run at the same point; the iterates and the report are the old
        # loop's
        # near the minimizer, where a model of a hundredth of the curvature
        # sends tCG to the boundary uphill; with an SPD preconditioner too
        H = np.diag(np.linspace(1.0, 30.0, 10))
        g = rng.standard_normal(10)
        y = -g / np.diag(H) + 1e-2 * rng.standard_normal(10)
        start = FactorPoint(y[:, None], ManifoldKind.FREE)
        P = _spd(rng, 10)
        precon = (lambda R: P @ R) if preconditioned else None
        old_model, model = (_LoggedModel(H, g, 100.0, precon)
                            for _ in range(2))
        want_point, want = _old_minimize(old_model, start, 1e-9, 60)
        point, report, _ = minimize(model, start, 1e-9, 60)
        assert point.Y.tobytes() == want_point.Y.tobytes()
        assert report == want
        # a retry is a cost evaluation with no "at" since the previous one
        steps = [e for e in model.log if e != "hess_vec"]
        assert steps[:3] == ["at", "cost", "cost"]  # first step rejected
        retries, products, moved = 0, 0, True
        for event in model.log[1:]:
            if event == "cost":
                if not moved:
                    retries += 1
                    assert products == 0
                products, moved = 0, False
            elif event == "at":
                moved = True
            else:
                products += 1
        assert retries >= 3
        assert model.log.count("hess_vec") < old_model.log.count("hess_vec")

    def test_radius_collapse_when_every_trial_costs_more(self, rng):
        # a cost one above the model's at every trial point rejects every
        # step: the radius shrinks by _SHRINK per step until it is below
        # _RADIUS_COLLAPSE, and only the first tCG run computes products
        class Uphill(_LoggedModel):
            def cost(self, point):
                return super().cost(point) + 1.0

        model = Uphill(np.diag([1.0, 2.0, 4.0, 5.0]), np.ones(4), 1.0)
        start = FactorPoint(rng.standard_normal((4, 1)), ManifoldKind.FREE)
        point, report, state = minimize(model, start, 1e-12, 200)
        radius, steps = 0.1 * np.sqrt(4), 0
        while radius >= rtr._RADIUS_COLLAPSE:
            radius, steps = radius * rtr._SHRINK, steps + 1
        assert report.reason == "radius-collapse"
        assert report.iterations == steps == model.log.count("cost")
        assert point is start and model.log.count("at") == 1
        first = model.log.index("cost")
        assert "hess_vec" in model.log[:first]
        assert "hess_vec" not in model.log[first:]

    def test_failed_retraction_shrinks_the_radius(self, rng, monkeypatch):
        # a step whose retraction raises counts as a step, and the next
        # one runs at _SHRINK times the radius, over the same products
        radii, products = [], []
        model = _LoggedModel(np.diag([1.0, 2.0, 4.0, 5.0]),
                             rng.standard_normal(4), 1.0)

        def spied_tcg(grad, hess_vec, radius, **kwargs):
            radii.append(radius)
            out = tcg(grad, hess_vec, radius, **kwargs)
            products.append(model.log.count("hess_vec"))
            return out

        failures = iter([True, True])

        def failing_retract(point, step):
            if next(failures, False):
                raise RetractionError("zero factor or row after step")
            return retract(point, step)

        monkeypatch.setattr(rtr, "tcg", spied_tcg)
        monkeypatch.setattr(rtr, "retract", failing_retract)
        start = FactorPoint(rng.standard_normal((4, 1)), ManifoldKind.FREE)
        _, report, _ = minimize(model, start, 1e-9, 200)
        radius = 0.1 * np.sqrt(4)
        assert radii[:3] == [radius, radius * rtr._SHRINK,
                             radius * rtr._SHRINK ** 2]
        assert report.reason == "tolerance"
        assert report.iterations == len(radii) > 3
        assert products[0] == products[2] > 0

    def test_sphere_rayleigh_quotient(self, rng):
        # min <Y, H Y> on the unit sphere = smallest eigenvalue of H
        A = rng.standard_normal((7, 7))
        H = 0.5 * (A + A.T)

        class Rayleigh:
            def cost(self, point):
                y = point.Y[:, 0]
                return float(y @ H @ y)

            def at(self, point):
                outer = self

                class State:
                    cost = outer.cost(point)
                    y = point.Y[:, 0]
                    grad = 2 * ((H @ y) - (y @ H @ y) * y)[:, None]

                    def hess_vec(self, U):
                        u = U[:, 0]
                        y = point.Y[:, 0]
                        hu = H @ u
                        out = 2 * (hu - (y @ hu) * y - (y @ H @ y) * u)
                        return out[:, None]

                return State()

        start = manifolds.random_point(7, 1, ManifoldKind.UNIT_TRACE, 5)
        point, report, _ = minimize(Rayleigh(), start, 1e-10, 500)
        want = np.linalg.eigvalsh(H)[0]
        assert Rayleigh().cost(point) == pytest.approx(want, abs=1e-8)


def test_bqp_tcg_never_hits_the_iteration_cap(monkeypatch):
    # with Hessian products kept on the tangent space, tCG on a small BQP
    # moment relaxation stops on the boundary, negative curvature or its
    # residual rule; an operator that is not symmetric on the tangent
    # space sends CG to its cap of one product per tangent dimension
    stops = []

    def recorded_tcg(*args, **kwargs):
        out = tcg(*args, **kwargs)
        stops.append(out[1])
        return out

    monkeypatch.setattr(rtr, "tcg", recorded_tcg)
    sol = solve(generators.gen_bqp_moment(*generators.random_bqp(6, 6)),
                SolverOptions(seed=0))
    assert sol.status == "converged"
    assert stops and "max-cg-iters" not in stops


def test_bqp_path_does_not_hang_on_the_last_bit(monkeypatch):
    # the q = 16 instance 1 of the bqp-moment benchmark under C scaled by
    # (1 + k 2^-52), k = 0..7: with tCG stopping at the residual floor,
    # every rounding takes about the same number of Hessian products
    # (without it, 1 939 to 4 127)
    products = 0

    def counted_tcg(grad, hess_vec, *args, **kwargs):
        def counted(U):
            nonlocal products
            products += 1
            return hess_vec(U)
        return tcg(grad, counted, *args, **kwargs)

    monkeypatch.setattr(rtr, "tcg", counted_tcg)
    sdp = generators.gen_bqp_moment(*generators.random_bqp(16, 1))
    counts, objectives = [], []
    for k in range(8):
        C = dataclasses.replace(sdp.C, vals=sdp.C.vals * (1 + k * 2.0 ** -52))
        products = 0
        sol = solve(SdpProblem(sdp.n, C, sdp.A, sdp.b, sdp.manifold,
                               sdp.objective_sign, sdp.objective_offset),
                    SolverOptions(seed=1))
        assert sol.status == "converged"
        counts.append(products)
        objectives.append(sol.objective)
    assert objectives == pytest.approx([objectives[0]] * 8, rel=1e-9)
    assert max(counts) <= 1.5 * np.median(counts)
    assert max(counts) <= 1500
