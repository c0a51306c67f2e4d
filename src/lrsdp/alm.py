"""Outer augmented Lagrangian loop: subproblem solves, multiplier updates,
dual assembly, saddle escape, rank adaptation, penalty adaptation.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import manifolds, problem as prob, rtr, spectral
from .manifolds import FactorPoint, ManifoldKind
from .problem import KktResidues
from .spectral import SymOperator


# the outer loop's fixed schedule: start rank P0, the rank cut at THETA s_1;
# sigma from SIGMA0, times GAMMA while the raw eta_p > TAU ||grad||, else
# over GAMMA; eps from EPS0 halving to EPS_FLOOR; inner step cap
P0, THETA = 2, 1e-3
SIGMA0, SIGMA_MIN, SIGMA_MAX, GAMMA, TAU = 1.0, 1e-2, 1e7, 2.0, 1.0
EPS0, EPS_DECAY, EPS_FLOOR = 1e-2, 0.5, 1e-11
MAX_INNER_ITERS = 200


@dataclass
class SolverOptions:
    """The settings of a solve, each one a flag of ``lrsdp solve``."""
    tol: float = 1e-8
    delta_ne: int = 10           # max columns added per saddle escape
    max_outer_iters: int = 300
    max_time: Optional[float] = None
    seed: int = 0

    def validate(self):
        # numbers, numpy's too, but not bools: True is no tol of 1
        def number(value, kind):
            return isinstance(value, kind) and not isinstance(value, bool)
        for name, least in (("max_outer_iters", 1), ("delta_ne", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if not (number(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be at least {least} and an "
                                 f"integer, got {value!r}")
        if not (number(self.tol, numbers.Real) and 0 < self.tol < np.inf):
            raise ValueError(f"tol must be positive and finite and a real "
                             f"number, got {self.tol!r}")
        if self.max_time is not None and not (
                number(self.max_time, numbers.Real) and self.max_time > 0):
            raise ValueError(f"max_time must be positive and a real "
                             f"number, got {self.max_time!r}")


@dataclass
class IterationTrace:
    k: int
    p: int
    sigma: float
    eps: float
    eta_p: float
    # eta_d, and so eta_max, is NaN where no eigensolve ran or it failed
    eta_d: float
    eta_g: float
    eta_max: float
    gradnorm: float
    inner_iters: int
    time: float


@dataclass
class Solution:
    Y: FactorPoint
    y: np.ndarray
    z: np.ndarray
    S: SymOperator
    lambda_min: float
    lambda_max: float
    objective: float             # reported convention (sign and offset)
    residues: KktResidues
    trace: List[IterationTrace]
    status: str                  # "converged" | "iteration-limit" |
                                 # "time-limit" | "eigensolver-failure"
    iterations: int
    wall_time: float


class AlmSubproblem:
    """Penalized factorized cost for one outer iteration (fixed y, sigma)."""

    def __init__(self, sdp, y, sigma):
        self.sdp = sdp
        self.y = y
        self.sigma = sigma
        self._last = (None, None, None)  # (point, r0, cost)

    def residual_cost(self, point):
        """(r0, cost): the constraint residual A(Y Y^T) - b and the cost.
        The last point's pair is kept: ``at`` after ``cost`` evaluates once."""
        if self._last[0] is not point:
            Y = point.Y
            r0 = prob.apply_constraints(self.sdp, Y) - self.sdp.b
            cost = (prob.objective(self.sdp, Y) - float(np.dot(self.y, r0))
                    + 0.5 * self.sigma * float(np.dot(r0, r0)))
            self._last = (point, r0, cost)
        return self._last[1:]

    def cost(self, point):
        return self.residual_cost(point)[1]

    def at(self, point):
        sdp, sigma = self.sdp, self.sigma
        Y = point.Y
        r0, cost = self.residual_cost(point)
        # grad Phi(X) is the slack S~ at the multipliers w = y - sigma r0;
        # a Hessian product is one S~ product plus one A / A* pass
        w = self.y - sigma * r0
        stilde = prob.Slack(sdp, w)
        W = stilde.times(Y)
        z = manifolds.multiplier_z(point, W)
        grad = manifolds.riem_grad(point, W, z)

        def ehess(U):
            # 2 (S~ U + sigma A*(A(Y U^T + U Y^T)) Y): the S~ part and the
            # penalty curvature
            return 2.0 * (stilde.times(U) + sigma * prob.apply_adjoint_times(
                sdp, prob.apply_constraints_sym(sdp, Y, U), Y))

        return _PointState(point, cost, grad, stilde, z, ehess,
                           self._precon(point, stilde, r0))

    def _precon(self, point, stilde, r0):
        """tCG's preconditioner R -> R K^-1 on the free manifold, else None.

        K = alpha I + beta Y^T Y, scaled to mean eigenvalue 1, follows the
        two parts of the Hessian: 2 S~ U, of scale alpha = ||S~||_F/sqrt(n),
        and the penalty curvature, which acts on U through Y^T Y with the
        scale beta = 2 sigma ||A(X)||^2/||X||_F^2. ``stilde``, the point's
        ``problem.Slack``, gives alpha with no dense S~ where the A_i miss
        part of X. Once the rank of Y exceeds the answer's, Y^T Y is
        ill-conditioned and so is tCG without K (Zhang, Fattahi and Zhang
        2021). Not on the sphere or the
        oblique manifold: projected onto the oblique tangent space, K cost
        a quarter more products on BQP moment relaxations (ROADMAP item 5).
        """
        if point.manifold is not ManifoldKind.FREE or self.sdp.m == 0:
            return None
        Y = point.Y
        gram = Y.T @ Y
        alpha = stilde.norm() / np.sqrt(point.n)
        x_norm2 = float(np.sum(gram * gram))  # ||X||_F = ||Y^T Y||_F
        ax = r0 + self.sdp.b
        beta = 2.0 * self.sigma * float(np.dot(ax, ax)) / x_norm2 \
            if x_norm2 > 0 else 0.0
        if not (0 < alpha < np.inf and np.isfinite(beta)):
            return None
        K = alpha * np.eye(point.p) + beta * gram
        K_inv = np.linalg.inv(K * (point.p / np.trace(K)))
        K_inv = 0.5 * (K_inv + K_inv.T)  # exactly symmetric

        def precon(R):
            return R @ K_inv
        return precon


@dataclass
class _PointState:
    """The subproblem at one point. ``slack``, a ``problem.Slack``, holds
    the first-order multipliers w = y - sigma r0, at which the dual slack
    S~ = C - A*(w) is grad Phi(X); S~ is no dense array here where the A_i
    miss part of X, and ``ehess``, the Euclidean Hessian product, reads it
    through ``slack``. ``z`` holds the manifold multipliers."""
    point: FactorPoint
    cost: float
    grad: np.ndarray
    slack: prob.Slack
    z: np.ndarray
    ehess: Callable[[np.ndarray], np.ndarray]
    precon: Optional[Callable[[np.ndarray], np.ndarray]]

    def hess_vec(self, U):
        return manifolds.riem_hess_vec(self.point, U, self.ehess, self.z)


def assemble_dual(sdp, state):
    """Multipliers z and the dual slack operator S = grad Phi(X) - B*(z) at
    the point of ``state``, an ``AlmSubproblem.at`` result: its own z, and
    S = C - A*(w) - B*(z) at its own w, the one dense n x n S of an outer
    row, from the state's own ``problem.Slack``."""
    z = state.z
    return z, SymOperator(state.slack.dual(z))


def escape_direction(eig, delta_ne, tol_escape):
    """Second-order descent directions (V, delta) from ``eig``, the ascending
    eigenvalues and the eigenvectors of S: V, n x delta, is a copy of the
    eigenvectors of the delta eigenvalues below -tol_escape among the
    delta_ne smallest, so ``eig`` can be freed; delta = 0 means no escape."""
    vals, vecs = eig
    delta = int(np.count_nonzero(vals[:delta_ne] < -tol_escape))
    return vecs[:, :delta].copy(), delta


def escape_step(sub, point, V):
    """The first retraction of the padded factor [Y 0] along [0 V], at
    t = 1, 1/2, ..., 2^-39, whose ``sub.cost`` is strictly below that of
    [Y 0]; else [Y 0].

    ``sub`` is the next row's subproblem and V an ``escape_direction``: the
    gradient vanishes on the padded columns and [0 V] on the others, so the
    cost has no slope along it and only the negative curvature of S
    descends. No retraction fails: each row of [Y tV] on the oblique
    manifold, and the whole factor on the sphere, is at least as long as
    that of Y, which is 1; on the free manifold none normalizes.
    """
    padded = FactorPoint(np.concatenate([point.Y, np.zeros(V.shape)], axis=1),
                         point.manifold)
    U = np.concatenate([np.zeros(point.Y.shape), V], axis=1)
    cost = sub.cost(padded)
    for k in range(40):
        trial = manifolds.retract(padded, U, 0.5 ** k)
        if sub.cost(trial) < cost:
            return trial
    return padded


def _kept_rank(s):
    """How many singular values s (nonincreasing) the rank cut keeps: those
    above THETA * s_1, so none when s_1 = 0."""
    return int(np.count_nonzero(s > THETA * s[0]))


def truncate_rank(point, rng, svd):
    """SVD-truncate the factor to its numerical rank and re-feasibilize.

    Keeps singular values above THETA * s_1; the truncated factor is
    retracted back onto the manifold (row or global renormalization), which
    perturbs it by at most the discarded singular mass. ``svd`` is the
    ``spectral.thin_svd`` of ``point.Y``; an all-zero factor restarts at
    one column drawn from ``rng``.
    """
    W, s, _ = svd
    if s[0] <= 0.0:
        return manifolds.random_point(point.n, 1, point.manifold,
                                      rng.integers(2**32))
    r = _kept_rank(s)
    Yr = W[:, :r] * s[:r]
    base = FactorPoint(np.zeros_like(Yr), point.manifold)
    try:
        return manifolds.retract(base, Yr)
    except manifolds.RetractionError:
        # a zero row in the truncated factor: keep the untruncated point
        return point


def update_penalty(sigma, eta_p_raw, gradnorm):
    """Adaptive penalty: grow when feasibility lags the gradient, else
    shrink."""
    if eta_p_raw > TAU * gradnorm:
        return min(sigma * GAMMA, SIGMA_MAX)
    return max(sigma / GAMMA, SIGMA_MIN)


def solve(sdp, opts=None):
    """Solve the SDP to KKT residues below tol via the outer ALM loop.

    Each outer iteration proves only what it uses. After eta_p and eta_g,
    the solve has converged where both are <= tol and the Cholesky proof
    ``spectral.proves_curvature_above`` of lambda_min(S) >= -tol (1 + L)
    holds, which gives eta_d <= tol; elsewhere a time or an iteration limit
    may end it. A row that goes on runs the same proof off the range that
    the rank cut keeps, and escapes where that proof fails; an escape row's
    one ``eigh`` gives it the exact eta_d and the escape its eigenvectors,
    and rows without an eigensolve hold NaN for eta_d and eta_max. The row
    that ends the solve takes the answer's one ``eigvalsh``; a limit whose
    exact eta_max <= tol is "converged". A LinAlgError from an eigensolve
    ends the solve as "eigensolver-failure", with NaN for eta_d and both
    eigenvalues. Other rows end by building the next row's subproblem,
    cutting the rank and, on an escape row, taking the escape step on that
    subproblem.
    """
    opts = opts or SolverOptions()
    opts.validate()
    t_start = time.perf_counter()
    deadline = None if opts.max_time is None else t_start + opts.max_time
    rng = np.random.default_rng(opts.seed)

    point = manifolds.random_point(sdp.n, P0, sdp.manifold, opts.seed)
    y = np.zeros(sdp.m)
    sigma = SIGMA0
    eps = EPS0
    sub = AlmSubproblem(sdp, y, sigma)
    trace: List[IterationTrace] = []

    for k in range(opts.max_outer_iters):
        point, report, state = rtr.minimize(sub, point, eps, MAX_INNER_ITERS,
                                            deadline=deadline)
        gradnorm = report.gradnorm

        r0, _ = sub.residual_cost(point)
        y = y - sigma * r0  # sub keeps its own reference to the old y
        z, S = assemble_dual(sdp, state)
        eta_p, eta_g = prob.primal_gap_residues(sdp, point.Y, y, z)
        # the proofs' bound: any diagonal entry of S is a Rayleigh quotient,
        # so L <= |lambda_max|, and lambda_min >= -tol (1 + L) gives
        # eta_d <= tol
        L = max(0.0, float(np.max(np.diagonal(S.dense))))
        bound = opts.tol * (1.0 + L)
        svd = spectral.thin_svd(point.Y)
        res = KktResidues(eta_p, np.nan, eta_g)
        if eta_p <= opts.tol and eta_g <= opts.tol \
                and spectral.proves_curvature_above(S, bound):
            status = "converged"
        elif deadline is not None and time.perf_counter() > deadline:
            status = "time-limit"
        elif k + 1 == opts.max_outer_iters:
            status = "iteration-limit"
        else:
            status = None
        # at a critical point S Y = 0, so an eigenvector v of S with
        # lambda < 0 has Y^T v = 0: negative curvature inside range(Y) is
        # the inexact inner solve's, and the next rank cut removes columns
        # added along it. Eigenvectors are computed only where the solve
        # goes on and curvature below -bound may lie off the kept range
        kept = svd[0][:, :_kept_rank(svd[1])]
        escape = status is None \
            and not spectral.proves_curvature_above(S, bound, kept)
        lam_min = lam_max = np.nan
        if escape or status:
            # eigenvectors for an escape; the answer's eigenvalues alone
            try:
                eig = spectral.extreme_eigs(S, escape)
                lam_min, lam_max = float(eig[0][0]), float(eig[0][-1])
                res = KktResidues(eta_p, prob.dual_residue(lam_min, lam_max),
                                  eta_g)
            except np.linalg.LinAlgError:
                status = "eigensolver-failure"
            if res.eta_max <= opts.tol:
                status = "converged"
        trace.append(IterationTrace(
            k=k, p=point.p, sigma=sigma, eps=eps,
            eta_p=res.eta_p, eta_d=res.eta_d, eta_g=res.eta_g,
            eta_max=res.eta_max, gradnorm=gradnorm,
            inner_iters=report.iterations,
            time=time.perf_counter() - t_start))
        if status:
            break  # no iteration follows: return the point of this row

        eta_p_raw = np.linalg.norm(r0) / (1.0 + np.linalg.norm(sdp.b))
        sigma = update_penalty(sigma, eta_p_raw, gradnorm)
        eps = max(EPS_FLOOR, eps * EPS_DECAY)
        if report.reason == "radius-collapse":
            # soft failure: the next inner solve gets a 10x looser gradient
            eps = min(10.0 * eps, EPS0)
        sub = AlmSubproblem(sdp, y, sigma)

        # cut the rank, then escape along eigenvectors of S's negative
        # eigenvalues from the cut factor padded with zero columns
        point = truncate_rank(point, rng, svd)
        if escape:
            tol_escape = max(1e-12, 1e-4 * opts.tol * (1.0 + abs(lam_max)))
            V, delta = escape_direction(eig, opts.delta_ne, tol_escape)
            eig = None  # free the n x n eigenvectors before the inner solve
            if delta > 0:
                point = escape_step(sub, point, V)

    obj = sdp.reported_objective(prob.objective(sdp, point.Y))
    return Solution(
        Y=point, y=y, z=z, S=S, lambda_min=float(lam_min),
        lambda_max=float(lam_max), objective=float(obj), residues=res,
        trace=trace, status=status, iterations=len(trace),
        wall_time=time.perf_counter() - t_start)
