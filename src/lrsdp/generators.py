"""Benchmark problem generators: Max-Cut, matrix completion, and
second-order moment relaxations of binary quadratic and quartic-sphere
polynomial programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, Tuple

import numpy as np

from .problem import (ConstraintSet, ManifoldKind, ProblemError, SdpProblem,
                      SparseSymMatrix)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with 1-based nodes and weighted edges (i < j)."""

    N: int
    edges: Tuple[Tuple[int, int, float], ...]

    def __post_init__(self):
        if not self.N >= 1:
            raise ProblemError(f"need N >= 1 nodes, got {self.N}")
        seen = set()
        for i, j, w in self.edges:
            if not np.isfinite(w):
                raise ProblemError(f"non-finite weight {w} on edge ({i}, {j})")
            if not 1 <= i < j <= self.N:
                raise ProblemError(f"bad edge ({i}, {j}) for N = {self.N}")
            if (i, j) in seen:
                raise ProblemError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))


def gen_maxcut(graph):
    """Max-Cut SDP relaxation: max (1/4) <L, X> over unit-diagonal PSD X.

    Internally minimizes <-L/4, X>; the reported objective flips the sign.
    """
    if not graph.edges:
        raise ProblemError("empty graph")
    n = graph.N
    deg = np.zeros(n)
    triplets = []
    for i, j, w in graph.edges:
        deg[i - 1] += w
        deg[j - 1] += w
        triplets.append((i - 1, j - 1, w / 4.0))  # -L_ij / 4 = w / 4
    for i in range(n):
        if deg[i]:
            triplets.append((i, i, -deg[i] / 4.0))
    C = SparseSymMatrix.from_triplets(n, triplets)
    return SdpProblem(n, C, [], np.zeros(0), ManifoldKind.UNIT_DIAGONAL,
                      objective_sign=-1.0)


def gen_matrix_completion(s, t, entries):
    """Nuclear-norm matrix completion as a trace-minimization SDP.

    ``entries`` is the tuple (rows, cols, values) of three 1-D numpy
    arrays of one length, the 0-based samples of the s x t matrix, as
    ``random_completion`` returns them; anything else, a list of
    (i, j, value) tuples included, raises ProblemError. One constraint
    per sample pins the off-diagonal block of the PSD variable:
    <A_ij, X> = 2 value.
    """
    if not (isinstance(entries, tuple) and len(entries) == 3
            and all(isinstance(a, np.ndarray) and a.ndim == 1
                    for a in entries)
            and entries[0].size == entries[1].size == entries[2].size):
        raise ProblemError("entries must be a tuple (rows, cols, values) "
                           "of three 1-D numpy arrays of one length")
    rows, cols, vals = entries
    if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
        raise ProblemError("sample indices must be integers")
    if vals.dtype.kind not in "iuf":
        raise ProblemError("sample values must be real numbers")
    bad = (rows < 0) | (rows >= s) | (cols < 0) | (cols >= t)
    if bad.any():
        k = np.argmax(bad)
        raise ProblemError(f"sample index ({rows[k]}, {cols[k]}) out of range")
    key = rows * t + cols
    if not np.all(key[1:] > key[:-1]):  # a sorted sample has no duplicate
        key, count = np.unique(key, return_counts=True)
        if np.any(count > 1):
            i, j = divmod(int(key[np.argmax(count > 1)]), t)
            raise ProblemError(f"duplicate sample ({i}, {j})")
    n, m = s + t, rows.size
    # a copy of rows: the problem keeps no view of the caller's array
    A = ConstraintSet(n, m, np.arange(m), rows.astype(np.intp), s + cols,
                      np.ones(m))
    return SdpProblem(n, SparseSymMatrix.identity(n), A, 2.0 * vals,
                      ManifoldKind.FREE)


# --- moment relaxations -------------------------------------------------

def _entry_triplet(a, b, coeff):
    """Triplet encoding coeff * X[a, b] (one count per unordered pair)."""
    if a == b:
        return (a, a, coeff)
    return (min(a, b), max(a, b), coeff / 2.0)


def _tie(trips, rhs, e, f):
    """Append X[e] - X[f] = 0 as (constraint, row, col, value) triplets."""
    k = len(rhs)
    trips += [(k,) + _entry_triplet(*e, 1.0), (k,) + _entry_triplet(*f, -1.0)]
    rhs.append(0.0)


def _constraint_set(n, m, triplets):
    """The ConstraintSet of (constraint, row, col, value) tuples."""
    k, r, c, v = zip(*triplets)
    return ConstraintSet(n, m, np.array(k), np.array(r), np.array(c),
                         np.array(v, dtype=float))


def _bqp_keys(q):
    """Basis size n, and the reduced monomial of every upper entry a < b of
    the BQP moment matrix, in (a, b) order: its key and its degree.

    Basis element a holds two slots, 0 for an empty slot and i + 1 for
    x_i. The four slots of a pair are merged in order and equal neighbours
    cancel (x_i^2 = 1). The slots left, in order and padded with 0 on the
    right, are the digits of a base-(q + 1) key, so keys order monomials as
    their sorted index tuples do."""
    pi, pj = np.triu_indices(q, 1)
    lo = np.concatenate([np.zeros(q + 1), pi + 1]).astype(np.int16)
    hi = np.concatenate([np.arange(q + 1), pj + 1]).astype(np.int16)
    a, b = np.triu_indices(lo.size, 1)
    x0, x1, y0, y1 = lo[a], hi[a], lo[b], hi[b]
    s0, s3 = np.minimum(x0, y0), np.maximum(x1, y1)
    x, y = np.maximum(x0, y0), np.minimum(x1, y1)
    s1, s2 = np.minimum(x, y), np.maximum(x, y)
    e01, e12, e23 = s0 == s1, s1 == s2, s2 == s3
    s0[e01] = 0
    s1[e01 | e12] = 0
    s2[e12 | e23] = 0
    s3[e23] = 0
    base = q + 1
    key = np.zeros(s0.size, np.int64)
    degree = np.zeros(s0.size, np.int8)
    for s in (s0, s1, s2, s3):
        nz = s != 0
        key[nz] = key[nz] * base + s[nz]
        degree += nz
    key *= (base ** np.arange(4, -1, -1))[degree]
    return lo.size, key, degree


def _bqp_constraints(q):
    """The ConstraintSet of the BQP moment relaxation: the n unit-diagonal
    constraints, then per class of entries in key order the star ties from
    its first member and, for a degree-two class of three or more members,
    the tie (members[1], members[2]). A stable sort of the keys lists each
    class's members in (a, b) order. Every array is built sorted and of
    the store's dtype, so ``ConstraintSet`` keeps it without a copy."""
    n, key, degree = _bqp_keys(q)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(key.size, bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    starts = np.flatnonzero(new)
    size = np.diff(np.append(starts, order.size))
    cycle = (degree[order[starts]] == 2) & (size >= 3)
    # upper pair numbers of the two entries of every tie, in order
    e = np.repeat(order[starts], size - 1)
    f = order[~new]
    at = np.cumsum(size - 1)[cycle]
    e = np.insert(e, at, order[starts[cycle] + 1])
    f = np.insert(f, at, order[starts[cycle] + 2])
    del order
    m = n + e.size
    index = np.empty(n + 2 * e.size, np.intp)
    rows, cols = np.empty_like(index), np.empty_like(index)
    index[:n] = rows[:n] = cols[:n] = np.arange(n)
    index[n::2] = index[n + 1::2] = np.arange(n, m)
    # pair p is (a, b) with first[a] <= p < first[a + 1]
    first = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    for p, half in ((e, slice(n, None, 2)), (f, slice(n + 1, None, 2))):
        a = np.searchsorted(first, p, "right") - 1
        rows[half] = a
        cols[half] = p - first[a] + a + 1
    vals = np.empty(index.size)
    vals[:n] = 1.0
    vals[n::2] = 0.5
    vals[n + 1::2] = -0.5
    return ConstraintSet(n, m, index, rows, cols, vals)


def gen_bqp_moment(Q, c):
    """Second-order moment relaxation of min x'Qx + c'x over x in {-1, 1}^q.

    The monomial basis is [1, x_i, x_i x_j (i<j)]; products are reduced
    modulo x_i^2 = 1, so each matrix entry carries a squarefree monomial.
    The constraint list pins every diagonal entry to one, ties all entries
    sharing a reduced monomial (one spanning star per class), and closes
    one extra cycle edge per degree-two class; this reproduces the
    constraint counts of the reference relaxation exactly.

    C and the constraints are built from arrays with no loop over entries
    (``_bqp_keys``, ``_bqp_constraints``): each entry's reduced monomial
    becomes an integer key whose order is that of the monomials' sorted
    index tuples, and one stable sort of the keys gives the classes in
    that order, each with its members in (row, col) order.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(c))):
        raise ProblemError("problem data contains NaN or inf")
    q = c.shape[0] if c.ndim == 1 else 0
    if q < 2 or Q.shape != (q, q):
        raise ProblemError("need q >= 2, c of shape (q,) and Q of shape "
                           "(q, q)")
    if not np.allclose(Q, Q.T):
        raise ProblemError("Q must be symmetric")

    A = _bqp_constraints(q)
    n = A.n
    # row 0 holds c_i / 2 at basis element 1 + i (x_i) and Q_ij at
    # q + 1 + k (x_i x_j, the k-th pair i < j), in column order
    coeff = np.concatenate((c, Q[np.triu_indices(q, 1)]))
    cols = np.flatnonzero(coeff)
    vals = coeff[cols]
    vals[cols < q] /= 2.0
    C = SparseSymMatrix(n, np.zeros(cols.size, np.intp), cols + 1, vals)
    b = np.zeros(A.m)
    b[:n] = 1.0
    return SdpProblem(n, C, A, b, ManifoldKind.UNIT_DIAGONAL,
                      objective_offset=float(np.trace(Q)))


def gen_quartic_sphere(q, coeffs):
    """Second-order moment relaxation of min c . [x]_4 on the unit sphere.

    ``coeffs`` maps monomials (sorted tuples of variable indices, length =
    degree, e.g. (0, 0, 1) for x_0^2 x_1) to real coefficients. The basis
    includes squares; constraints are entry coincidences, the sphere
    multiplier identities w (sum_i x_i^2 - 1) = 0 for every basis monomial
    w, and the normalization of the leading entry.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ProblemError(f"need an integer q >= 1, got {q!r}")
    basis = [()]
    basis += [(i,) for i in range(q)]
    basis += list(combinations_with_replacement(range(q), 2))
    n = len(basis)

    # canonical representative entry for every degree-<=4 monomial
    rep: Dict[tuple, Tuple[int, int]] = {}
    coincidences = []
    for a in range(n):
        for b_ in range(a, n):
            mono = tuple(sorted(basis[a] + basis[b_]))
            if mono in rep:
                coincidences.append((rep[mono], (a, b_)))
            else:
                rep[mono] = (a, b_)

    trips, rhs = [], []
    for anchor, other in coincidences:
        _tie(trips, rhs, anchor, other)
    for w in basis:  # w * (sum_i x_i^2 - 1) = 0
        acc: Dict[Tuple[int, int], float] = {}
        for i in range(q):
            e = rep[tuple(sorted(w + (i, i)))]
            acc[e] = acc.get(e, 0.0) + 1.0
        e = rep[w]
        acc[e] = acc.get(e, 0.0) - 1.0
        trips.extend((len(rhs),) + _entry_triplet(a, b_, g)
                     for (a, b_), g in acc.items() if g)
        rhs.append(0.0)
    trips.append((len(rhs), 0, 0, 1.0))
    rhs.append(1.0)

    acc: Dict[Tuple[int, int], float] = {}
    for mono, coeff in coeffs.items():
        mono = tuple(sorted(mono))
        if len(mono) > 4:
            raise ProblemError(f"monomial degree {len(mono)} exceeds four")
        if any(not 0 <= v < q for v in mono):
            raise ProblemError(f"variable index out of range in {mono}")
        e = rep[mono]
        acc[e] = acc.get(e, 0.0) + float(coeff)
    cost = [_entry_triplet(a, b_, g) for (a, b_), g in acc.items() if g]
    C = SparseSymMatrix.from_triplets(n, cost)
    return SdpProblem(n, C, _constraint_set(n, len(rhs), trips),
                      np.array(rhs), ManifoldKind.FREE)


# --- random benchmark instances ----------------------------------------

def random_bqp(q, seed):
    """Random (Q, c) with standard-normal entries, Q symmetrized."""
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((q, q))
    Q = 0.5 * (Q + Q.T)
    c = rng.standard_normal(q)
    return Q, c


def random_quartic(q, seed):
    """Random standard-normal coefficients on all monomials of degree <= 4."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for deg in range(5):
        for mono in combinations_with_replacement(range(q), deg):
            coeffs[mono] = float(rng.standard_normal())
    return coeffs


def random_completion(s, t, rank, num_samples, seed):
    """Random rank-``rank`` matrix M plus a uniform sample of its entries:
    (M, (rows, cols, values)), the int64 indices in row-major order and
    the float64 values M[rows, cols], one array each."""
    if not 0 <= num_samples <= s * t:
        raise ProblemError(f"num_samples must be in 0..{s * t} (s * t), "
                           f"got {num_samples}")
    if rank < 0:
        raise ProblemError(f"rank must be at least 0, got {rank}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((s, rank)) @ rng.standard_normal((rank, t))
    # the flat indices i t + j of the sample, in row-major order
    i, j = np.divmod(np.sort(rng.choice(s * t, size=num_samples,
                                        replace=False)), t)
    return M, (i, j, M[i, j])


def unit_edge_graph():
    return WeightedGraph(2, ((1, 2, 1.0),))


def unit_triangle_graph():
    return WeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
