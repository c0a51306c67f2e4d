"""Riemannian trust-region inner solver with truncated CG subproblems."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .manifolds import RetractionError, retract

_RADIUS_COLLAPSE = 1e-14
_RHO_PRIME = 0.1  # a step is accepted when its decrease ratio exceeds this
# tCG's residual floor as a fraction of minimize's grad_tol; below 1, since
# minimize runs tCG only when ||grad|| > grad_tol, so no run starts at it
_FLOOR = 0.5
_SHRINK = 0.25  # radius factor after a rejected step


@dataclass
class RtrReport:
    gradnorm: float
    iterations: int
    reason: str  # "tolerance" | "max-iters" | "radius-collapse" | "time-limit"


def _inner(A, B):
    return float(np.dot(A.ravel(), B.ravel()))


def _identity(R):
    return R


def tcg(grad, hess_vec, radius, kappa=0.1, max_iters=None, floor=0.0,
        products=None, precon=None):
    """Truncated CG (Steihaug-Toint) for the trust-region model.

    Minimizes m(s) = <grad, s> + 0.5 <s, H s> over ||s||_M <= radius,
    stopping on negative curvature, the boundary, or the residual rule
    ||r|| <= max(||r0|| * min(kappa, ||r0||), floor), where
    r = grad + H s is the model's gradient at the iterate s. ``precon``
    applies an SPD operator P ~ H^-1 to a residual, and the trust region
    is measured in the norm of M = P^-1 (Absil, Baker and Gallivan 2007):
    <s, M s>, <s, M d> and <d, M d> follow from the CG recurrences with no
    product by M (Conn, Gould and Toint 2000, Alg. 7.5.1). Without it,
    P = M = I and the same recurrences run: plain CG in the Euclidean
    norm. The residual rule is Euclidean either way. The floor is an
    inexact-Newton forcing term (Eisenstat and Walker 1996): once the
    model gradient is below it, further CG steps buy accuracy the caller
    does not need. An iterate s = 0 that already meets the rule (a zero
    gradient, or ||grad|| <= floor) is returned as "converged" with model
    0.0 and no Hessian product. Returns ``(step, reason, model)`` with
    ``model`` = m(step), taken from H step tracked alongside the iterate,
    so callers need no further product.

    The k-th Hessian product is ``products[k]`` when the list
    ``products`` has one; otherwise tCG computes it and appends it. Until
    tCG stops, neither its path nor its stop rule (the floor included)
    depends on the radius. So a run at a smaller radius, with the same
    other arguments, stops no later on the same path: given the list of
    the first run, it reads every product from it and returns, bit for
    bit, what a fresh run would.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if max_iters is None:
        max_iters = grad.size
    precon = _identity if precon is None else precon
    products = [] if products is None else products
    eta, Heta = np.zeros_like(grad), np.zeros_like(grad)
    r = grad.copy()
    rr = _inner(r, r)
    r0_norm = np.sqrt(rr)
    target = max(r0_norm * min(kappa, r0_norm), floor)
    z = precon(r)
    zr = rr if z is r else _inner(z, r)
    d = -z
    # <eta, M eta>, <eta, M d> and <d, M d>
    e_norm2, e_d, d_norm2 = 0.0, 0.0, zr
    reason = "max-cg-iters"
    if r0_norm <= target:
        reason, max_iters = "converged", 0
    for k in range(max_iters):
        if k == len(products):
            products.append(hess_vec(d))
        Hd = products[k]
        dHd = _inner(d, Hd)
        if dHd <= 0:
            reason = "negative-curvature"
            break
        alpha = zr / dHd
        new_e_norm2 = e_norm2 + 2 * alpha * e_d + alpha * alpha * d_norm2
        if new_e_norm2 >= radius * radius:
            reason = "boundary"
            break
        eta = eta + alpha * d
        Heta = Heta + alpha * Hd
        e_norm2 = new_e_norm2
        r = r + alpha * Hd
        rr = _inner(r, r)
        if np.sqrt(rr) <= target:
            reason = "converged"
            break
        z = precon(r)
        zr_new = rr if z is r else _inner(z, r)
        beta = zr_new / zr
        d = -z + beta * d
        e_d = beta * (e_d + alpha * d_norm2)
        d_norm2 = zr_new + beta * beta * d_norm2
        zr = zr_new
    if reason in ("boundary", "negative-curvature"):
        # where eta + tau d leaves the radius in the norm of M
        tau = _boundary_step(e_norm2, e_d, d_norm2, radius)
        eta, Heta = eta + tau * d, Heta + tau * Hd
    return eta, reason, _inner(grad, eta) + 0.5 * _inner(eta, Heta)


def _boundary_step(e_norm2, e_d, d_norm2, radius):
    # positive root of ||eta + tau d||_M^2 = radius^2
    disc = e_d * e_d + d_norm2 * (radius * radius - e_norm2)
    return (-e_d + np.sqrt(max(disc, 0.0))) / d_norm2


def minimize(model, point, grad_tol, max_iters, deadline=None):
    """Drive the Riemannian gradient norm of the model below grad_tol.

    ``model`` supplies ``cost(point)`` and ``at(point)``; the latter returns
    a state with ``cost``, ``grad`` (tangent ndarray) and ``hess_vec(U)``,
    and optionally ``precon``: an SPD map of tangent vectors, or None. A
    state's ``precon`` preconditions its tCG runs, whose trust region is
    then measured in the norm of its inverse (see ``tcg``).
    At most ``max_iters`` trust-region steps are taken, from the radius
    0.1 sqrt(n p), capped at ten times that. The radius doubles after a
    very successful step (rho > 0.75) that tCG stopped on the boundary or
    on negative curvature, and shrinks by ``_SHRINK`` after a poor one
    (rho < 0.25).
    Hessian products run only inside tCG, with its default truncation and
    the residual floor ``_FLOOR * grad_tol``: tCG stops once the model's
    gradient is at or below half the tolerance, since a smaller one buys
    accuracy this solve does not need. The floor is below grad_tol, so a
    tCG run never starts at it. The loop itself still stops only on the
    true ||grad|| <= grad_tol. The predicted decrease of a step is tCG's
    model value. A rejected step shrinks the radius by ``_SHRINK`` and
    retries from the same point: tCG runs again over the Hessian products
    already computed there. Until tCG stops, neither its path nor its stop
    rule depends on the radius, so the retry stops no later than the run
    that computed them, needs no new product and returns the bits of a
    fresh run. The products are dropped when a step is accepted. Every
    retry counts as a trust-region step. No trust-region step starts once
    ``time.perf_counter()`` has passed ``deadline``. Returns
    ``(point, report, state)`` with ``state`` the model's ``at`` of the
    returned point, the one evaluated there during the solve.
    """
    n, p = point.Y.shape
    radius = 0.1 * np.sqrt(n * p)
    max_radius = 10.0 * radius

    state = model.at(point)
    iters = 0
    reason = "max-iters"
    products = []  # tCG's Hessian products at the current point
    gradnorm = np.sqrt(_inner(state.grad, state.grad))
    best_point, best_state, best_gradnorm = point, state, gradnorm
    while iters < max_iters:
        if gradnorm <= grad_tol:
            reason = "tolerance"
            break
        if radius < _RADIUS_COLLAPSE:
            reason = "radius-collapse"
            break
        if deadline is not None and time.perf_counter() > deadline:
            reason = "time-limit"
            break
        iters += 1
        step, stop, model_value = tcg(
            state.grad, state.hess_vec, radius, floor=_FLOOR * grad_tol,
            products=products, precon=getattr(state, "precon", None))
        pred = -model_value
        try:
            trial = retract(point, step)
            trial_cost = model.cost(trial)
        except RetractionError:
            radius *= _SHRINK
            continue
        # regularized ratio; near the noise floor rho ~ 1 and the
        # (noise-scale) step is accepted rather than spinning in place
        reg = 1e-13 * max(1.0, abs(state.cost))
        rho = (state.cost - trial_cost + reg) / (pred + reg)
        if rho < 0.25:
            radius *= _SHRINK
        elif rho > 0.75 and stop in ("boundary", "negative-curvature"):
            radius = min(2.0 * radius, max_radius)
        if rho > _RHO_PRIME:
            point = trial
            products = []
            state = model.at(point)
            gradnorm = np.sqrt(_inner(state.grad, state.grad))
            if state.cost <= best_state.cost:
                best_point, best_state = point, state
                best_gradnorm = gradnorm
    if gradnorm <= grad_tol:
        reason = "tolerance"
    elif state.cost > best_state.cost:
        # noise-scale uphill accepts can end above the best visited cost;
        # the returned iterate must keep the monotone decrease guarantee
        point, state, gradnorm = best_point, best_state, best_gradnorm
    return point, RtrReport(gradnorm=float(gradnorm), iterations=iters,
                            reason=reason), state
