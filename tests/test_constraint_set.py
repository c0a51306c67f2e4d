"""ConstraintSet: the flat triplet store of the A_i, checked bit for bit
against the per-constraint build it replaced (one ``from_triplets`` matrix
per A_i, concatenated in order), which is kept here as the oracle."""

import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from conftest import random_sym_triplets
from lrsdp import generators as gen
from lrsdp.io_cli import read_sdpa, write_sdpa
from lrsdp.problem import (ConstraintSet, ManifoldKind, ProblemError,
                           SdpProblem, SparseSymMatrix)


def _flat(mats):
    """The flattened (index, rows, cols, vals) of a matrix list, as
    ``SdpProblem`` concatenated them from one object per A_i."""
    k = np.repeat(np.arange(len(mats), dtype=np.intp), [M.nnz for M in mats])
    r, c, v = (np.concatenate([np.zeros(0, dtype)]
                              + [getattr(M, f) for M in mats])
               for f, dtype in (("rows", np.intp), ("cols", np.intp),
                                ("vals", float)))
    return k, r, c, v


def _assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _assert_bitwise(sdp, mats, b):
    got = (sdp.A.index, sdp.A.rows, sdp.A.cols, sdp.A.vals, sdp.b)
    _assert_same_bytes(got, _flat(mats) + (np.asarray(b, dtype=float),))


def _entry(a, b, coeff):
    return (a, a, coeff) if a == b else (min(a, b), max(a, b), coeff / 2.0)


def _old_completion(s, t, entries):
    n = s + t
    A = [SparseSymMatrix.from_triplets(n, [(i, s + j, 1.0)])
         for i, j, _ in entries]
    return A, np.array([2.0 * val for _, _, val in entries])


def _old_bqp_cost(Q, c):
    """C of the relaxation, from the pair numbers of a dict."""
    q = c.size
    pairs = list(combinations(range(q), 2))
    pair_index = {p: q + 1 + k for k, p in enumerate(pairs)}
    cost = [_entry(0, pair_index[(i, j)], 2.0 * Q[i, j])
            for i, j in pairs if Q[i, j]]
    cost += [_entry(0, 1 + i, c[i]) for i in range(q) if c[i]]
    return SparseSymMatrix.from_triplets(1 + q + len(pairs), cost)


def _old_bqp(q):
    basis = [frozenset()] + [frozenset([i]) for i in range(q)]
    basis += [frozenset(p) for p in combinations(range(q), 2)]
    n = len(basis)
    classes = {}
    for a in range(n):
        for b_ in range(a + 1, n):
            classes.setdefault(basis[a] ^ basis[b_], []).append((a, b_))
    A = [SparseSymMatrix.from_triplets(n, [(a, a, 1.0)]) for a in range(n)]
    for mono in sorted(classes, key=lambda s: tuple(sorted(s))):
        members = classes[mono]
        pairs = [(members[0], other) for other in members[1:]]
        if len(mono) == 2 and len(members) >= 3:
            pairs.append((members[1], members[2]))
        A += [SparseSymMatrix.from_triplets(
            n, [_entry(*e, 1.0), _entry(*f, -1.0)]) for e, f in pairs]
    return A, [1.0] * n + [0.0] * (len(A) - n)


def _old_quartic(q):
    basis = [()] + [(i,) for i in range(q)]
    basis += list(combinations_with_replacement(range(q), 2))
    n = len(basis)
    rep, coincidences = {}, []
    for a in range(n):
        for b_ in range(a, n):
            mono = tuple(sorted(basis[a] + basis[b_]))
            if mono in rep:
                coincidences.append((rep[mono], (a, b_)))
            else:
                rep[mono] = (a, b_)
    A = [SparseSymMatrix.from_triplets(n, [_entry(*e, 1.0), _entry(*f, -1.0)])
         for e, f in coincidences]
    for w in basis:
        acc = {}
        for i in range(q):
            e = rep[tuple(sorted(w + (i, i)))]
            acc[e] = acc.get(e, 0.0) + 1.0
        acc[rep[w]] = acc.get(rep[w], 0.0) - 1.0
        A.append(SparseSymMatrix.from_triplets(
            n, [_entry(a, b_, g) for (a, b_), g in acc.items() if g]))
    A.append(SparseSymMatrix.from_triplets(n, [(0, 0, 1.0)]))
    return A, [0.0] * (len(A) - 1) + [1.0]


def _old_read_sdpa(path):
    """The file's matrices, one ``from_triplets`` each, duplicates summed
    in file order."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    m, n = int(lines[0][0]), int(lines[2][0])
    entries = {k: {} for k in range(m + 1)}
    for matno, _, i, j, val in lines[3 + (m > 0):]:
        pos = entries[int(matno)]
        key = (int(i) - 1, int(j) - 1)
        pos[key] = pos.get(key, 0.0) + float(val)
    return [SparseSymMatrix.from_triplets(
                n, [(i, j, v) for (i, j), v in entries[k].items()])
            for k in range(1, m + 1)]


class TestBitwiseAgainstPerConstraintBuild:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_completion(self, seed):
        _, entries = gen.random_completion(7, 5, 2, 20, seed)
        sdp = gen.gen_matrix_completion(7, 5, entries)
        # the oracle reads the samples as (i, j, value) tuples
        samples = list(zip(*(a.tolist() for a in entries)))
        _assert_bitwise(sdp, *_old_completion(7, 5, samples))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 8, 12, 16])
    def test_bqp_moment(self, q):
        # q = 16 is the benchmark's size; the oracle takes ~0.5 s there
        Q, c = gen.random_bqp(q, q)
        if q == 5:
            Q[0, 1] = Q[1, 0] = c[2] = 0.0  # zeros stay out of C
        sdp = gen.gen_bqp_moment(Q, c)
        _assert_bitwise(sdp, *_old_bqp(q))
        C = _old_bqp_cost(Q, c)
        _assert_same_bytes((sdp.C.rows, sdp.C.cols, sdp.C.vals),
                           (C.rows, C.cols, C.vals))
        assert sdp.objective_offset == float(np.trace(Q))
        assert sdp.manifold is ManifoldKind.UNIT_DIAGONAL
        assert sdp.objective_sign == 1.0

    @pytest.mark.parametrize("q", [2, 3])
    def test_quartic_sphere(self, q):
        sdp = gen.gen_quartic_sphere(q, gen.random_quartic(q, q))
        _assert_bitwise(sdp, *_old_quartic(q))

    def test_maxcut_has_no_constraints(self):
        sdp = gen.gen_maxcut(gen.unit_triangle_graph())
        _assert_bitwise(sdp, [], [])
        assert len(sdp.A) == 0 and list(sdp.A) == []

    def test_sdpa_round_trip(self, tmp_path):
        sdp = gen.gen_quartic_sphere(3, gen.random_quartic(3, 0))
        path = tmp_path / "q.dat-s"
        write_sdpa(sdp, path)
        back = read_sdpa(path)
        _assert_bitwise(back, _old_read_sdpa(path), sdp.b)
        _assert_bitwise(back, list(sdp.A), sdp.b)

    def test_sdpa_duplicates_summed_in_file_order(self, tmp_path):
        # entries out of order, a matrix with no entries, and duplicates
        # whose sum depends on the order of addition
        path = tmp_path / "d.dat-s"
        path.write_text("3\n1\n3\n1 0 2\n"
                        "3 1 2 3 0.1\n1 1 1 2 1e16\n0 1 1 1 -1.0\n"
                        "1 1 1 2 1.0\n3 1 1 1 2.0\n1 1 1 2 -1e16\n"
                        "3 1 2 3 0.2\n1 1 1 1 0.5\n3 1 2 3 0.3\n")
        sdp = read_sdpa(path)
        _assert_bitwise(sdp, _old_read_sdpa(path), [1.0, 0.0, 2.0])
        assert sdp.A[0].vals.tolist() == [0.5, (1e16 + 1.0) - 1e16]
        assert sdp.A[1].nnz == 0
        assert sdp.A[2].vals.tolist() == [2.0, (0.1 + 0.2) + 0.3]


def _matrices(rng, n=6):
    mats = [SparseSymMatrix.from_triplets(n, random_sym_triplets(n, k, rng))
            for k in (3, 1, 4)]
    mats.insert(2, SparseSymMatrix.from_triplets(n, []))
    return mats


class TestConstraintSet:
    def test_views_match_input(self, rng):
        mats = _matrices(rng)
        A = ConstraintSet.from_matrices(6, mats)
        assert len(A) == 4
        for k in range(-4, 4):
            for f in ("rows", "cols", "vals"):
                assert np.array_equal(getattr(A[k], f), getattr(mats[k], f))
            assert A[k].n == 6
        for Ak, M in zip(A, mats, strict=True):
            assert np.array_equal(Ak.to_dense(), M.to_dense())
        assert np.shares_memory(A[1].vals, A.vals)  # a view, not a copy
        for k in (4, -5):
            with pytest.raises(IndexError):
                A[k]

    def test_triplets_sorted_by_matrix_row_col(self):
        A = ConstraintSet(3, 2, [1, 0, 1, 0], [1, 0, 0, 0], [2, 2, 1, 0],
                          [1.0, 2.0, 3.0, 4.0])
        assert A.index.tolist() == [0, 0, 1, 1]
        assert A.rows.tolist() == [0, 0, 0, 1]
        assert A.cols.tolist() == [0, 2, 1, 2]
        assert A.vals.tolist() == [4.0, 2.0, 3.0, 1.0]
        assert A.start.tolist() == [0, 2, 4]

    @pytest.mark.parametrize("field", ["index", "rows", "cols"])
    def test_non_integer_index_rejected(self, field):
        t = dict(index=[0, 1], rows=[0, 1], cols=[1, 1])
        t[field] = [0.0, 1.0]
        with pytest.raises(ProblemError, match="integers"):
            ConstraintSet(3, 2, vals=[1.0, 2.0], **t)

    @pytest.mark.parametrize("index", [2, -1])
    def test_matrix_index_out_of_range_rejected(self, index):
        # rows, columns, duplicates and values are checked through
        # SdpProblem in test_problem
        with pytest.raises(ProblemError, match="constraint index out of"):
            ConstraintSet(3, 2, [index], [0], [1], [1.0])

    @pytest.mark.parametrize("n,m,needle", [
        (0, 1, "dimension must be an integer >= 1, got 0"),
        (3.0, 1, "dimension must be an integer >= 1, got 3.0"),
        ("3", 1, "dimension must be an integer >= 1, got '3'"),
        (True, 1, "dimension must be an integer >= 1, got True"),
        (3, -1, "constraint count must be an integer >= 0, got -1"),
        (3, 2.5, "constraint count must be an integer >= 0, got 2.5"),
        (3, None, "constraint count must be an integer >= 0, got None"),
    ])
    def test_bad_size_rejected(self, n, m, needle):
        # a negative m used to construct, and len() then raised a bare
        # ValueError; a float m raised a TypeError there
        with pytest.raises(ProblemError, match=re.escape(needle)):
            ConstraintSet(n, m, [], [], [], [])

    def test_numpy_integer_sizes_accepted(self):
        A = ConstraintSet(np.int64(3), np.int32(2), [1], [0], [2], [1.0])
        assert len(A) == 2 and A[1].n == 3 and A[0].nnz == 0

    @pytest.mark.parametrize("value", [None, "x", "1.0", 1 + 2j])
    def test_non_numeric_value_rejected(self, value):
        # None read as NaN ("NaN or inf"), "x" escaped as a bare ValueError
        with pytest.raises(ProblemError, match="must be real numbers"):
            SparseSymMatrix.from_triplets(2, [(0, 0, value)])
        with pytest.raises(ProblemError, match="must be real numbers"):
            ConstraintSet(2, 1, [0, 0], [0, 0], [0, 1], [1.0, value])

    def test_real_values_of_any_type_accepted(self):
        M = SparseSymMatrix.from_triplets(
            2, [(0, 0, Fraction(1, 4)), (0, 1, 2), (1, 1, np.float32(0.5))])
        assert M.vals.dtype == float
        assert M.vals.tolist() == [0.25, 2.0, 0.5]
        with pytest.raises(ProblemError, match="NaN or inf"):
            SparseSymMatrix.from_triplets(2, [(0, 0, float("nan"))])

    def test_ragged_arrays_rejected(self):
        with pytest.raises(ProblemError, match="differ in length"):
            ConstraintSet(3, 1, [0, 0], [0, 1], [1], [1.0, 2.0])

    def test_problem_accepts_set_or_sequence(self, rng):
        mats = _matrices(rng)
        C = SparseSymMatrix.identity(6)
        A = ConstraintSet.from_matrices(6, mats)
        from_set = SdpProblem(6, C, A, np.zeros(4), ManifoldKind.FREE)
        from_list = SdpProblem(6, C, mats, np.zeros(4), ManifoldKind.FREE)
        assert from_set.A is A and from_set.m == 4
        assert from_set.A.vals is A.vals  # no second copy
        _assert_bitwise(from_list, mats, np.zeros(4))
        with pytest.raises(ProblemError, match="dimension"):
            SdpProblem(7, SparseSymMatrix.identity(7), A, np.zeros(4),
                       ManifoldKind.FREE)
        with pytest.raises(ProblemError, match=r"\|A\| = 4 but \|b\| = 3"):
            SdpProblem(6, C, A, np.zeros(3), ManifoldKind.FREE)


def test_completion_retains_little_per_constraint():
    # one object per A_i retained 531 B per constraint on this instance;
    # the flat store holds the five triplet arrays, b and the offsets
    s = t = 200
    m = 10_000
    _, entries = gen.random_completion(s, t, 3, m, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sdp = gen.gen_matrix_completion(s, t, entries)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sdp.m == m
    assert retained / m < 150


@pytest.mark.parametrize("q", [16, 20])
def test_bqp_build_peak_under_twice_retained(q):
    # the loop over entries peaked at 624 B per constraint against 134 B
    # retained at q = 16; the array build stays within twice what it keeps
    Q, c = gen.random_bqp(q, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sdp = gen.gen_bqp_moment(Q, c)
        retained, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert sdp.m == {16: 7057, 20: 16361}[q]
    assert peak <= 2 * retained
    assert retained / sdp.m < 110


def _old_order(index, rows, cols, vals):
    """The arrays ConstraintSet keeps, as the full lexsort decided them:
    the input itself when the sort leaves it in place, else sorted copies."""
    order = np.lexsort((cols, rows, index))
    if np.any(order[1:] < order[:-1]):
        return tuple(a[order] for a in (index, rows, cols, vals))
    return index, rows, cols, vals


class TestSortedness:
    def test_array_generators_build_without_a_sort(self, monkeypatch):
        # the array-built generators hand over sorted triplets, C included;
        # Max-Cut and the quartic take C and their constraints in the
        # caller's order, which ConstraintSet sorts
        def no_sort(*args, **kwargs):
            raise AssertionError("np.lexsort called")
        Q, c = gen.random_bqp(8, 0)
        _, entries = gen.random_completion(7, 5, 2, 20, 0)
        monkeypatch.setattr(np, "lexsort", no_sort)
        assert gen.gen_bqp_moment(Q, c).m == 569
        assert gen.gen_matrix_completion(7, 5, entries).m == 20

    @pytest.mark.parametrize("case", ["sorted", "reversed", "last-swapped",
                                      "shuffled", "ties"])
    def test_same_arrays_and_copies_as_a_full_sort(self, case, rng):
        n, m, size = 5, 4, 30
        index = rng.integers(0, m, size)
        rows = rng.integers(0, n, size)
        cols = rng.integers(0, n, size)
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        # one entry per (matrix, position): duplicates are a separate case
        key = np.unique((index * n + rows) * n + cols)
        index, rest = np.divmod(key, n * n)
        rows, cols = np.divmod(rest, n)
        vals = rng.standard_normal(index.size)
        perm = {"sorted": np.arange(index.size),
                "reversed": np.arange(index.size)[::-1],
                "last-swapped": np.r_[np.arange(index.size - 2),
                                      index.size - 1, index.size - 2],
                "shuffled": rng.permutation(index.size),
                # equal (matrix, row), columns out of order
                "ties": np.arange(index.size)}[case]
        t = [np.ascontiguousarray(a[perm]) for a in (index, rows, cols, vals)]
        if case == "ties":
            t = [np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0]),
                 np.array([3, 2, 0, 1]), np.array([1.0, 2.0, 3.0, 4.0])]
        A = ConstraintSet(n, m, *t)
        want = _old_order(*t)
        _assert_same_bytes((A.index, A.rows, A.cols, A.vals), want)
        for got, given, old in zip((A.index, A.rows, A.cols, A.vals), t,
                                   want):
            assert (got is given) == (old is given)

    @pytest.mark.parametrize("triplets", [
        ([0, 0], [1, 1], [2, 2]),             # sorted, equal neighbours
        ([1, 0, 1], [0, 0, 0], [2, 1, 2]),     # unsorted, apart
    ])
    def test_duplicates_rejected_either_way(self, triplets):
        index, rows, cols = (np.array(a) for a in triplets)
        with pytest.raises(ProblemError,
                           match=r"^duplicate \(row, col\) entry in one "
                                 r"matrix$"):
            ConstraintSet(3, 2, index, rows, cols, np.ones(index.size))
