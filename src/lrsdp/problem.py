"""Problem data model: sparse symmetric matrices, SDP instances, KKT residues.

The A_i are one ``ConstraintSet``, a single sorted list of triplets with no
object per A_i. ``SdpProblem`` takes one, or a sequence of
``SparseSymMatrix`` that it converts once, and checks C and the A_i with
one vectorized pass each.

The solver holds the factor Y of X = Y Y^T, not X. The support map is
the one place that knows where the A_i sit: their support block R x C,
R their rows and C their columns, and one cached (m, |R| |C|) map that
holds each triplet once. The four constraint products read it for every
m, m = 0 included: A(Y Y^T) from the block Y_R Y_C^T
(``apply_constraints``, once per ALM point), A(Y U^T + U Y^T) from
Y_R U_C^T + U_R Y_C^T (``apply_constraints_sym``), and A*(v) V and A*(v)
from the block B = M^T v and its transpose (``apply_adjoint_times``,
``adjoint_dense``). So do A(C) and the overlap K = R n C. Where the A_i
touch all of X (BQP) the block is n x n; where they touch one
off-diagonal block (completion) no product forms an n x n array but
``adjoint_dense``, whose result is one.

The inner solve reads the slack S~ = C - A*(w) only through ``Slack``:
its products with a factor-sized V and its Frobenius norm. Where the
support is all of X, S~ is the dense ``dual_slack(problem, w)`` and a
product one GEMM; elsewhere S~ is never formed as a dense array, and a
product is C V through a CSR of C less the block products of A*(w). The
dual slack S = C - A*(y) - B*(z) is dense once per outer row, built only
by ``dual_slack``; ``spectral`` bounds its spectrum by Cholesky proofs and
computes it with one ``eigh`` or ``eigvalsh`` per call.
``kkt_residues`` is ``primal_gap_residues`` and ``dual_residue`` together,
so the solver can take eta_p and eta_g before it decides whether S needs
its eigenvalues. The manifold constraints B(X) = d and ``ManifoldKind``
are defined in ``manifolds``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .manifolds import ManifoldKind, constraint_dots


class ProblemError(ValueError):
    """Invalid problem data (bad indices, shape mismatch, duplicates, NaN)."""


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric matrix stored as upper-triangular triplets (row <= col).

    Off-diagonal triplets represent the entry and its mirror, so
    ``<A, X> = sum_k val_k * X[r_k, c_k] * (2 if r_k != c_k else 1)``.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @staticmethod
    def from_triplets(n, triplets):
        """Build from (row, col, value) tuples; indices are 0-based ints, and
        an entry below the diagonal is stored as its mirror. Indices that
        are not integers (1.5, None, "1") raise ProblemError rather than
        being truncated or cast; ``ConstraintSet`` checks the rest."""
        r, c, v = zip(*triplets) if triplets else ((), (), ())
        idx = np.array((r, c))
        if idx.size and idx.dtype.kind not in "iu":
            raise ProblemError("triplet indices must be integers")
        return ConstraintSet(n, 1, np.zeros(idx.shape[1], np.intp),
                             idx.min(axis=0), idx.max(axis=0), v)[0]

    @staticmethod
    def identity(n):
        idx = np.arange(n, dtype=np.intp)
        return SparseSymMatrix(n, idx, idx.copy(), np.ones(n))

    @property
    def nnz(self):
        return self.rows.size

    def to_dense(self):
        A = np.zeros((self.n, self.n))
        A[self.rows, self.cols] = self.vals
        A[self.cols, self.rows] = self.vals
        return A


def _in_order(index, rows, cols):
    """Whether the triplets are sorted by (index, row, col), ties allowed,
    by comparing neighbours: linear time, and boolean temporaries only."""
    i0, i1, r0, r1 = index[:-1], index[1:], rows[:-1], rows[1:]
    return bool(np.all((i0 < i1) | ((i0 == i1) & (
        (r0 < r1) | ((r0 == r1) & (cols[:-1] <= cols[1:]))))))


class ConstraintSet:
    """The m constraint matrices as one list of upper-triangular triplets,
    sorted by (matrix, row, col): A_k holds entry (rows[t], cols[t]) =
    vals[t] for t in start[k]:start[k + 1]. ``len`` is m, and ``A[k]`` and
    iteration give A_k as a ``SparseSymMatrix`` of slices, not copies.
    An n that is not an integer >= 1, an m that is not an integer >= 0,
    non-integer or out-of-range indices, a position twice in one matrix,
    values that are not real numbers and non-finite values raise
    ProblemError."""

    def __init__(self, n, m, index, rows, cols, vals):
        for name, value, least in (("dimension", n, 1),
                                   ("constraint count", m, 0)):
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral) \
                    or value < least:
                raise ProblemError(f"{name} must be an integer >= {least}, "
                                   f"got {value!r}")
        t = [np.asarray(a) for a in (index, rows, cols)]
        if any(a.size and a.dtype.kind not in "iu" for a in t):
            raise ProblemError("triplet indices must be integers")
        index, rows, cols = (a.astype(np.intp, copy=False) for a in t)
        vals = np.asarray(vals)
        # as float, None would read as NaN and "x" raise a bare ValueError
        if vals.dtype.kind not in "biuf" and not (
                vals.dtype.kind == "O" and all(
                    isinstance(v, numbers.Real) for v in vals.flat)):
            raise ProblemError("triplet values must be real numbers")
        vals = vals.astype(float, copy=False)
        if index.ndim != 1 \
                or not index.shape == rows.shape == cols.shape == vals.shape:
            raise ProblemError("index, rows, cols and vals must be 1-D and "
                               "must not differ in length")
        if not np.all(np.isfinite(vals)):
            raise ProblemError("problem data contains NaN or inf")
        # as unsigned, a negative index is huge: one test checks both ends
        if np.count_nonzero(index.view(np.uintp) >= m):
            raise ProblemError("constraint index out of range")
        if rows.size and not (rows.min() >= 0 and cols.max() < n
                              and np.all(rows <= cols)):
            raise ProblemError("triplet index out of range or below the "
                               "diagonal: need 0 <= row <= col < n")
        if not _in_order(index, rows, cols):  # sorted input is not copied
            order = np.lexsort((cols, rows, index))
            index, rows, cols, vals = (a[order]
                                       for a in (index, rows, cols, vals))
        if np.any((index[1:] == index[:-1]) & (rows[1:] == rows[:-1])
                  & (cols[1:] == cols[:-1])):
            raise ProblemError("duplicate (row, col) entry in one matrix")
        self.n, self.m = n, m
        self.index, self.rows, self.cols, self.vals = index, rows, cols, vals
        self.start = np.searchsorted(index, np.arange(m + 1))

    @staticmethod
    def from_matrices(n, matrices):
        """The set of a sequence of ``SparseSymMatrix``, in order."""
        mats = list(matrices)
        for k, M in enumerate(mats):
            if M.n != n:
                raise ProblemError(f"constraint {k} dimension mismatch")
        index = np.repeat(np.arange(len(mats)), [M.nnz for M in mats])
        return ConstraintSet(n, len(mats), index, *(
            np.concatenate([getattr(M, f) for M in mats] or [np.zeros(0)])
            for f in ("rows", "cols", "vals")))

    def __len__(self):
        return self.m

    def __getitem__(self, k):
        k = range(self.m)[k]  # IndexError past either end ends iteration
        s = slice(self.start[k], self.start[k + 1])
        return SparseSymMatrix(self.n, self.rows[s], self.cols[s],
                               self.vals[s])


class CostMap(NamedTuple):
    """What ``Slack`` reads of C off the full support (see
    ``SdpProblem._cost_map``): C as a CSR of its triplets and their
    mirrors, ||C||_F^2 and the m-vector A(C)."""

    C: sp.csr_matrix
    norm2: float
    a_of_c: np.ndarray


class SupportMap(NamedTuple):
    """The support block R x C of the A_i and the map M onto it (see
    ``SdpProblem._support_map``); ``shape`` is (|R|, |C|), ``MT`` the CSC
    transpose of M, sharing its arrays, and ``overlap`` the index of the
    block over K = R n C of an |R| x |C| array."""

    rows: Union[slice, np.ndarray]
    cols: Union[slice, np.ndarray]
    shape: Tuple[int, int]
    M: sp.csr_matrix
    MT: sp.csc_matrix
    overlap: tuple


def _support(mask):
    """The sorted indices where ``mask`` holds, as a slice (a view, not a
    copy, when it indexes) if they are a contiguous range."""
    idx = np.flatnonzero(mask)
    if idx.size == 0 or idx[-1] - idx[0] == idx.size - 1:
        lo = int(idx[0]) if idx.size else 0
        return slice(lo, lo + idx.size)
    return idx


def _block(rows, cols):
    """The index of the block rows x cols of an n x n array."""
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols)


@dataclass(frozen=True)
class KktResidues:
    """Scaled primal/dual/gap residues; eta_max certifies the solution."""

    eta_p: float
    eta_d: float
    eta_g: float

    @property
    def eta_max(self):
        # np.max propagates NaN from any position; the builtin max does not
        return float(np.max([self.eta_p, self.eta_d, self.eta_g]))


class SdpProblem:
    """A linear SDP  min <C, X>  s.t.  <A_i, X> = b_i,  X in manifold, X >= 0.

    The reported objective is ``objective_sign * <C, X> + objective_offset``;
    internally the solver always minimizes <C, X>.

    Immutable after construction; all operations on it are pure.
    """

    def __init__(self, n, C, A, b, manifold, objective_sign=1.0,
                 objective_offset=0.0):
        b = np.asarray(b, dtype=float)
        if C.n != n:
            raise ProblemError("cost matrix dimension mismatch")
        if not isinstance(A, ConstraintSet):
            A = ConstraintSet.from_matrices(n, A)
        if A.n != n:
            raise ProblemError("constraint dimension mismatch")
        if A.m != b.size:
            raise ProblemError(f"|A| = {A.m} but |b| = {b.size}")
        if not (np.all(np.isfinite(b))
                and np.isfinite([objective_sign, objective_offset]).all()):
            raise ProblemError("problem data contains NaN or inf")
        ConstraintSet.from_matrices(n, [C])  # C passes the checks of an A_i
        self.n = n
        self.C = C
        self.A = A
        self.b = b
        self.manifold = ManifoldKind(manifold)
        self.objective_sign = float(objective_sign)
        self.objective_offset = float(objective_offset)
        self._map = None  # lazy ``SupportMap``
        self._cost = None  # lazy ``CostMap``

    @property
    def m(self):
        return self.A.m

    def manifold_rhs(self):
        """The right-hand side d of the manifold constraints: all ones."""
        return np.ones_like(self.manifold_residual(np.zeros((self.n, 1))))

    def manifold_residual(self, Y):
        """B(Y Y^T) - d for the manifold constraints."""
        return constraint_dots(self.manifold, Y, Y) - 1.0

    def _support_map(self):
        """The ``SupportMap`` of the A_i: their support block and their map
        onto it.

        R and C are the sorted distinct rows and columns of the A_i's
        triplets, each a slice when it is a contiguous range. M is the
        (m, |R| |C|) CSR map whose row k holds A_k's triplets at
        r' |C| + c', where r and c are the r'-th of R and the c'-th of C,
        with each diagonal value halved and scipy's index dtype. So for a
        symmetric Z, <A_k, Z> = 2 (M vec(Z[R, C]))_k, and sum_k v_k A_k is
        B + B^T for the n x n embedding of B = M^T v at R x C. With m = 0,
        R and C are empty slices and M is 0 x 0. K's positions in R and
        in C are those of the indices that both hold.

        The triplets are sorted by (matrix, row, col) and the maps from
        n to R and to C are increasing, so each row of M is sorted as
        built: no COO copy and no sort."""
        if self._map is None:
            A, n, m = self.A, self.n, self.m
            masks = np.zeros((2, n), bool)
            masks[0, A.rows] = masks[1, A.cols] = True
            nr, nc = map(int, np.count_nonzero(masks, axis=1))
            idx = np.int32 if max(m, nr * nc, A.rows.size) \
                <= np.iinfo(np.int32).max else np.int64
            where = np.cumsum(masks, axis=1, dtype=idx)
            where -= 1  # where[0][r] = r', where[1][c] = c'
            indices = where[0][A.rows]
            indices *= nc
            indices += where[1][A.cols]
            data = A.vals.copy()
            data[A.rows == A.cols] *= 0.5
            M = sp.csr_matrix((data, indices, A.start.astype(idx)),
                              shape=(m, nr * nc))
            both = masks[0] & masks[1]
            self._map = SupportMap(_support(masks[0]), _support(masks[1]),
                                   (nr, nc), M, M.T,
                                   np.ix_(where[0][both], where[1][both]))
        return self._map

    def _cost_map(self):
        """The ``CostMap`` of C and the A_i, built on first use.

        C's CSR is scipy's build of its triplets and their mirrors. A(C)
        is 2 M vec(C[R, C]) through the support map, from C's block at
        R x C, formed once."""
        if self._cost is None:
            C = self.C
            off = C.rows != C.cols
            rows, cols, vals = (np.concatenate((a, b[off])) for a, b in (
                (C.rows, C.cols), (C.cols, C.rows), (C.vals, C.vals)))
            csr = sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
            R, Cs, _, M = self._support_map()[:4]
            self._cost = CostMap(
                csr, float(np.dot(csr.data, csr.data)),
                2.0 * (M @ csr[_block(R, Cs)].toarray().ravel()))
        return self._cost

    def reported_objective(self, value):
        return self.objective_sign * value + self.objective_offset


def _check_factor(problem, Y):
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != problem.n:
        raise ProblemError(
            f"factor must be {problem.n} x p, got shape {Y.shape}")
    return Y


def _check_multipliers(problem, v):
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.m,):
        raise ProblemError(f"multiplier length {v.shape} != m = {problem.m}")
    return v


def apply_constraints(problem, Y):
    """A(Y Y^T) as a length-m vector: 2 M vec(Y_R Y_C^T) over the support
    block R x C of ``SdpProblem._support_map``, for every m."""
    Y = _check_factor(problem, Y)
    R, C, _, M = problem._support_map()[:4]
    return 2.0 * (M @ (Y[R] @ Y[C].T).ravel())


def apply_constraints_sym(problem, Y, U):
    """A(Y U^T + U Y^T) as a length-m vector (needed by Hessian products):
    2 M vec(Y_R U_C^T + U_R Y_C^T), the block as one product
    [Y_R U_R] [U_C Y_C]^T."""
    Y = _check_factor(problem, Y)
    U = _check_factor(problem, U)
    if U.shape != Y.shape:
        raise ProblemError(f"U has shape {U.shape}, Y {Y.shape}")
    R, C, _, M = problem._support_map()[:4]
    Z = np.concatenate((Y[R], U[R]), axis=1) \
        @ np.concatenate((U[C], Y[C]), axis=1).T
    return 2.0 * (M @ Z.ravel())


def _adjoint_block(problem, v):
    """(R, C, B): sum_i v_i A_i is B + B^T for B = M^T v embedded at R x C."""
    R, C, shape, _, MT = problem._support_map()[:5]
    return R, C, (MT @ v).reshape(shape)


def apply_adjoint_times(problem, v, V):
    """(sum_i v_i A_i) @ V for a dense n x p array V: B V_C in the rows R
    and B^T V_R in the rows C."""
    v = _check_multipliers(problem, v)
    V = _check_factor(problem, V)
    out = np.zeros_like(V)
    R, C, B = _adjoint_block(problem, v)
    out[R] = B @ V[C]
    out[C] += B.T @ V[R]
    return out


def adjoint_dense(problem, v):
    """sum_i v_i A_i as a dense n x n matrix: B^T written at C x R, then B
    added at R x C. The add reads B in its own order; an add of the
    strided B^T costs more."""
    v = _check_multipliers(problem, v)
    out = np.zeros((problem.n, problem.n))
    R, C, B = _adjoint_block(problem, v)
    out[_block(C, R)] = B.T
    out[_block(R, C)] += B
    return out


def dual_slack(problem, y, z=None):
    """S = C - A*(y) - B*(z) as a dense n x n matrix; z=None drops B*.

    One n x n array: A*(-y), C's triplets added at their positions and
    the mirrors of those off the diagonal. Negation is exact and addition
    commutes, so S has the bits of C - A*(y). B*(z) is a diagonal update
    in place."""
    S = adjoint_dense(problem, -np.asarray(y, dtype=float))
    C = problem.C
    S[C.rows, C.cols] += C.vals
    off = C.rows != C.cols
    S[C.cols[off], C.rows[off]] += C.vals[off]
    if z is not None:
        _subtract_bstar(problem, S, z)
    return S


def _subtract_bstar(problem, S, z):
    """S - B*(z) in place: z subtracted on the diagonal; B* is zero on
    Free."""
    if problem.manifold is not ManifoldKind.FREE:
        S.flat[::problem.n + 1] -= z


class Slack:
    """S~ = C - A*(w) for one multiplier vector w, as its product with a
    dense n x p V (``times``) and its Frobenius norm (``norm``).

    Where the support block R x C of the A_i is all of X, S~ is the dense
    ``dual_slack(problem, w)`` and a product is one GEMM. Elsewhere
    (disjoint, overlapping or empty support) S~ is never formed: the
    block B = M^T w is formed once, and a product is C V through the CSR
    of ``SdpProblem._cost_map``, less B V_C in the rows R and B^T V_R in
    the rows C. There ||S~||_F^2 = ||C||_F^2 - 2 w^T A(C) + ||A*(w)||_F^2,
    and A*(w) = B + B^T embedded in X gives
    ||A*(w)||_F^2 = 2 ||B||_F^2 + 2 <B_K, B_K^T> over K = R n C, the
    support map's ``overlap``.
    """

    def __init__(self, problem, w):
        self.problem, self.w = problem, w
        if problem._support_map().shape == (problem.n, problem.n):
            self.dense, self.block = dual_slack(problem, w), None
        else:
            self.dense, self.block = None, _adjoint_block(problem, w)

    def dual(self, z):
        """S = S~ - B*(z), the dense ``dual_slack(problem, w, z)``, bit for
        bit: a copy of the held S~ where there is one, else built."""
        if self.dense is None:
            return dual_slack(self.problem, self.w, z)
        S = self.dense.copy()
        _subtract_bstar(self.problem, S, z)
        return S

    def times(self, V):
        if self.dense is not None:
            return self.dense @ V
        R, C, B = self.block
        out = self.problem._cost_map().C @ V
        out[R] -= B @ V[C]
        out[C] -= B.T @ V[R]
        return out

    def norm(self):
        if self.dense is not None:
            return np.linalg.norm(self.dense)
        B = self.block[2]
        _, c2, a_c = self.problem._cost_map()
        BK = B[self.problem._support_map().overlap]
        a2 = 2.0 * (float(np.vdot(B, B)) + float(np.sum(BK * BK.T)))
        # rounding can leave the sum a little below 0 where S~ vanishes
        return np.sqrt(max(c2 - 2.0 * float(np.dot(self.w, a_c)) + a2,
                           0.0))


def objective(problem, Y):
    """Internal (minimized) objective <C, Y Y^T>."""
    Y = _check_factor(problem, Y)
    C = problem.C
    prod = np.einsum("ij,ij->i", Y[C.rows], Y[C.cols])
    w = C.vals * np.where(C.rows != C.cols, 2.0, 1.0)
    return float(np.dot(w, prod))


def kkt_residues(problem, Y, y, z, lambda_min, lambda_max):
    """KKT residues of the tuple (X, y, z, S) with X = Y Y^T implicit.

    ``lambda_min``/``lambda_max`` are the extreme eigenvalues of the dual
    slack matrix S. The dual residue counts only the negative part of
    lambda_min, so a strictly PSD S certifies rather than blocks. The primal
    residue folds the manifold constraint violation in quadrature, and the
    gap residue includes the manifold multipliers (d^T z) in the dual value.
    """
    eta_p, eta_g = primal_gap_residues(problem, Y, y, z)
    return KktResidues(eta_p, dual_residue(lambda_min, lambda_max), eta_g)


def primal_gap_residues(problem, Y, y, z):
    """(eta_p, eta_g) of ``kkt_residues``: neither reads the spectrum of S."""
    Y = _check_factor(problem, Y)
    ra = apply_constraints(problem, Y) - problem.b
    rb = problem.manifold_residual(Y)
    eta_p = np.sqrt(np.dot(ra, ra) + np.dot(rb, rb)) \
        / (1.0 + np.linalg.norm(problem.b))
    pobj = objective(problem, Y)
    dobj = float(np.dot(problem.b, y) + np.dot(problem.manifold_rhs(), z))
    eta_g = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    if not (np.isfinite(eta_p) and np.isfinite(eta_g)):
        raise ProblemError("non-finite KKT residue")
    return float(eta_p), float(eta_g)


def dual_residue(lambda_min, lambda_max):
    """eta_d of ``kkt_residues`` from the extreme eigenvalues of S."""
    eta_d = max(-lambda_min, 0.0) / (1.0 + abs(lambda_max))
    if not np.isfinite(eta_d):
        raise ProblemError("non-finite KKT residue")
    return float(eta_d)
