"""ConstraintSet: the flat triplet store of the A_i, checked bit for bit
against the per-constraint build it replaced (one ``from_triplets`` matrix
per A_i, concatenated in order), which is kept here as the oracle."""

import base64
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from conftest import random_sym_triplets
from lrsdp import alm, generators as gen
from lrsdp.io_cli import (problem_from_document, read_sdpa, result_document,
                          write_sdpa)
from lrsdp.problem import (ConstraintSet, ManifoldKind, ProblemError,
                           SdpProblem, SparseSymMatrix)


def _flat(mats):
    """The flattened (start, rows, cols, vals) of a matrix list, as
    ``SdpProblem`` concatenated them from one object per A_i, in the
    set's dtypes: int32 offsets, rows and columns, float64 values."""
    k = np.cumsum([0] + [M.nnz for M in mats]).astype(np.int32)
    r, c, v = (np.concatenate([np.zeros(0, dtype)]
                              + [getattr(M, f) for M in mats]).astype(dtype)
               for f, dtype in (("rows", np.int32), ("cols", np.int32),
                                ("vals", float)))
    return k, r, c, v


def _assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _assert_bitwise(sdp, mats, b):
    got = (sdp.A.start, sdp.A.rows, sdp.A.cols, sdp.A.vals, sdp.b)
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
        # each matrix's triplets out of (row, col) order
        A = ConstraintSet(3, 2, [0, 2, 4], [0, 0, 1, 0], [2, 0, 2, 1],
                          [2.0, 4.0, 1.0, 3.0])
        assert A.rows.tolist() == [0, 0, 0, 1]
        assert A.cols.tolist() == [0, 2, 1, 2]
        assert A.vals.tolist() == [4.0, 2.0, 3.0, 1.0]
        assert A.start.tolist() == [0, 2, 4]

    @pytest.mark.parametrize("field", ["start", "rows", "cols"])
    def test_non_integer_index_rejected(self, field):
        t = dict(start=[0, 1, 2], rows=[0, 1], cols=[1, 1])
        t[field] = [float(i) for i in t[field]]
        with pytest.raises(ProblemError, match="integers"):
            ConstraintSet(3, 2, vals=[1.0, 2.0], **t)

    @pytest.mark.parametrize("index", [2, -1])
    def test_matrix_index_out_of_range_rejected(self, index):
        # an offset past the triplets or below 0 puts a triplet in no
        # matrix or in two; rows, columns, duplicates and values are
        # checked through SdpProblem in test_problem
        with pytest.raises(ProblemError, match=re.escape(
                "start must hold 3 offsets from 0 up to 1, never "
                "decreasing")):
            ConstraintSet(3, 2, [0, index, 1], [0], [1], [1.0])

    @pytest.mark.parametrize("n,m,needle", [
        (0, 1, "dimension must be an integer >= 1, got 0"),
        (3.0, 1, "dimension must be an integer >= 1, got 3.0"),
        ("3", 1, "dimension must be an integer >= 1, got '3'"),
        (True, 1, "dimension must be an integer >= 1, got True"),
        (3, -1, "constraint count must be an integer >= 0, got -1"),
        (3, 2.5, "constraint count must be an integer >= 0, got 2.5"),
        (3, None, "constraint count must be an integer >= 0, got None"),
        # int32 indices
        (2**31 + 1, 1, "dimension must be at most 2^31 (int32 indices), "
                       "got 2147483649"),
    ])
    def test_bad_size_rejected(self, n, m, needle):
        # a negative m used to construct, and len() then raised a bare
        # ValueError; a float m raised a TypeError there
        with pytest.raises(ProblemError, match=re.escape(needle)):
            ConstraintSet(n, m, [], [], [], [])

    def test_numpy_integer_sizes_accepted(self):
        A = ConstraintSet(np.int64(3), np.int32(2), np.array([0, 0, 1]),
                          [0], [2], [1.0])
        assert len(A) == 2 and A[1].n == 3 and A[0].nnz == 0

    @pytest.mark.parametrize("value", [None, "x", "1.0", 1 + 2j])
    def test_non_numeric_value_rejected(self, value):
        # None read as NaN ("NaN or inf"), "x" escaped as a bare ValueError
        with pytest.raises(ProblemError, match="must be real numbers"):
            SparseSymMatrix.from_triplets(2, [(0, 0, value)])
        with pytest.raises(ProblemError, match="must be real numbers"):
            ConstraintSet(2, 1, [0, 2], [0, 0], [0, 1], [1.0, value])

    def test_real_values_of_any_type_accepted(self):
        M = SparseSymMatrix.from_triplets(
            2, [(0, 0, Fraction(1, 4)), (0, 1, 2), (1, 1, np.float32(0.5))])
        assert M.vals.dtype == float
        assert M.vals.tolist() == [0.25, 2.0, 0.5]
        with pytest.raises(ProblemError, match="NaN or inf"):
            SparseSymMatrix.from_triplets(2, [(0, 0, float("nan"))])

    def test_ragged_arrays_rejected(self):
        with pytest.raises(ProblemError, match="differ in length"):
            ConstraintSet(3, 1, [0, 2], [0, 1], [1], [1.0, 2.0])

    def test_more_triplets_than_int32_rejected_at_once(self):
        # 2^31 triplets as zero-stride views: their count alone rejects
        # the set, before a pass over them allocates an array per triplet
        size = 2**31
        index = np.broadcast_to(np.int32(0), (size,))
        vals = np.broadcast_to(1.0, (size,))
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ProblemError, match=re.escape(
                    "at most 2^31 - 1 triplets (int32 offsets), got "
                    "2147483648")):
                ConstraintSet(1, 1, np.array([0, size]), index, index, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 1 << 20

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
    # one object per A_i retained 531 B per constraint on this instance,
    # and the store with an intp index per triplet 49; int32 rows,
    # columns and offsets, the values and b hold 29
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
    assert retained / m < 35


@pytest.mark.parametrize("q", [16, 20])
def test_bqp_build_peak_under_twice_retained(q):
    # the loop over entries peaked at 624 B per constraint against 134 B
    # retained at q = 16, and the store with an intp index per triplet
    # kept 81; it keeps 45 now, and the build's temporaries stay within
    # twice that
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
    assert retained / sdp.m < 55


def _old_order(start, rows, cols, vals):
    """The arrays ConstraintSet keeps, as a full lexsort by (matrix, row,
    col) decides them: the input itself when the sort leaves it in place,
    else sorted copies."""
    index = np.repeat(np.arange(start.size - 1), np.diff(start))
    order = np.lexsort((cols, rows, index))
    if np.any(order[1:] < order[:-1]):
        return tuple(a[order] for a in (rows, cols, vals))
    return rows, cols, vals


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
        # the triplets come grouped by matrix, each group in the order
        # the case names; int32 and float64 arrays in order are kept
        n, m, size = 5, 4, 30
        index = rng.integers(0, m, size)
        rows = rng.integers(0, n, size)
        cols = rng.integers(0, n, size)
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        # one entry per (matrix, position): duplicates are a separate case
        key = np.unique((index * n + rows) * n + cols)
        index, rest = np.divmod(key, n * n)
        rows, cols = np.divmod(rest, n)
        start = np.searchsorted(index, np.arange(m + 1)).astype(np.int32)
        vals = rng.standard_normal(index.size)
        # a permutation of each matrix's triplets, in place
        within = {"sorted": lambda k: k,
                  "reversed": lambda k: k[::-1],
                  "last-swapped": lambda k: k if k.size < 2 else np.r_[
                      k[:-2], k[-1], k[-2]],
                  "shuffled": rng.permutation,
                  "ties": lambda k: k}[case]
        perm = np.concatenate([within(np.arange(start[k], start[k + 1]))
                               for k in range(m)])
        t = [start] + [np.ascontiguousarray(a[perm], dtype)
                       for a, dtype in ((rows, np.int32), (cols, np.int32),
                                        (vals, float))]
        if case == "ties":  # equal (matrix, row), columns out of order
            t = [np.array([0, 2, 4, 4, 4], np.int32),
                 np.array([1, 1, 0, 0], np.int32),
                 np.array([3, 2, 0, 1], np.int32),
                 np.array([1.0, 2.0, 3.0, 4.0])]
        A = ConstraintSet(n, m, *t)
        want = _old_order(*t)
        assert A.start is t[0]
        _assert_same_bytes((A.rows, A.cols, A.vals), want)
        for got, given, old in zip((A.rows, A.cols, A.vals), t[1:], want):
            assert (got is given) == (old is given)

    @pytest.mark.parametrize("triplets", [
        ([0, 2, 2], [1, 1], [2, 2]),        # sorted, equal neighbours
        ([0, 0, 3], [0, 0, 0], [2, 1, 2]),  # unsorted, apart
    ])
    def test_duplicates_rejected_either_way(self, triplets):
        start, rows, cols = (np.array(a) for a in triplets)
        with pytest.raises(ProblemError,
                           match=r"^duplicate \(row, col\) entry in one "
                                 r"matrix$"):
            ConstraintSet(3, 2, start, rows, cols, np.ones(rows.size))

    def test_equal_positions_in_two_matrices_allowed(self):
        # neighbours across an offset may hold one position: A_0 ends and
        # A_1, once sorted, begins at (0, 2)
        A = ConstraintSet(3, 2, [0, 2, 4], [0, 0, 1, 0], [1, 2, 1, 2],
                          [1.0, 2.0, 3.0, 4.0])
        assert A.rows.tolist() == [0, 0, 0, 1]
        assert A.cols.tolist() == [1, 2, 2, 1]
        assert A.vals.tolist() == [1.0, 2.0, 4.0, 3.0]


def _sources(tmp_path):
    """Problems from every source of a set, by name: the four generators,
    an SDPA file and a result document."""
    sdp = gen.gen_bqp_moment(*gen.random_bqp(4, 0))
    path = tmp_path / "b.dat-s"
    write_sdpa(sdp, path)
    opts = alm.SolverOptions(max_outer_iters=1)
    return {
        "bqp": lambda: gen.gen_bqp_moment(*gen.random_bqp(4, 0)),
        "completion": lambda: gen.gen_matrix_completion(
            6, 5, gen.random_completion(6, 5, 2, 12, 0)[1]),
        "quartic": lambda: gen.gen_quartic_sphere(
            2, gen.random_quartic(2, 0)),
        "maxcut": lambda: gen.gen_maxcut(gen.unit_triangle_graph()),
        "sdpa": lambda: read_sdpa(path),
        "document": lambda: problem_from_document(
            result_document(sdp, alm.solve(sdp, opts), opts)),
    }


_SOURCES = ["bqp", "completion", "quartic", "maxcut", "sdpa", "document"]


class TestLayout:
    @pytest.mark.parametrize("source", _SOURCES)
    def test_dtypes_and_no_index(self, source, tmp_path):
        # int32 offsets, rows and columns and float64 values, 16 bytes a
        # triplet: no set keeps an index per triplet, C's included
        sdp = _sources(tmp_path)[source]()
        for S in (sdp.A, ConstraintSet.from_matrices(sdp.n, [sdp.C])):
            assert [a.dtype for a in (S.start, S.rows, S.cols, S.vals)] \
                == [np.int32, np.int32, np.int32, np.float64]
            assert S.start.shape == (S.m + 1,)
            assert not hasattr(S, "index")
        assert (sdp.C.rows.dtype, sdp.C.cols.dtype) == (np.int32, np.int32)

    @pytest.mark.parametrize("source", ["bqp", "completion", "sdpa",
                                        "document"])
    def test_arrays_kept_without_a_copy(self, source, tmp_path,
                                        monkeypatch):
        # the array-built sources hand the A_i's set arrays of its dtypes,
        # grouped by matrix and in order, and the set keeps those very
        # arrays; the quartic and Max-Cut build theirs from lists
        build = _sources(tmp_path)[source]
        given = {}
        init = ConstraintSet.__init__

        def spy(self, n, m, *arrays):
            init(self, n, m, *arrays)
            given[id(self)] = arrays
        monkeypatch.setattr(ConstraintSet, "__init__", spy)
        A = build().A
        kept = (A.start, A.rows, A.cols, A.vals)
        assert all(a is b for a, b in zip(kept, given[id(A)], strict=True))

    @pytest.mark.parametrize("family", ["bqp", "completion", "sdpa"])
    def test_support_map_rows_are_the_offsets(self, family, tmp_path):
        # one index width from source to document, on both benchmark
        # families and a file: the set's arrays and M's are int32, M's
        # indptr is the set's start, not a copy, and a document writes
        # start as "<i4"
        sdp = _sources(tmp_path)[family]()
        A, M = sdp.A, sdp._support_map().M
        assert [a.dtype for a in (A.start, A.rows, A.cols, M.indices,
                                  M.indptr)] == [np.int32] * 5
        assert np.shares_memory(M.indptr, A.start)
        opts = alm.SolverOptions(max_outer_iters=1)
        doc = result_document(sdp, alm.solve(sdp, opts), opts)
        start = base64.b64decode(doc["problem"]["A"]["start"])
        assert start == A.start.astype("<i4").tobytes()


def test_support_block_past_int32_rejected():
    # A_k = e_k e_{h + k}^T for k < h = 46 341, n = 2 h: the support block
    # is h x h, 2 147 488 281 entries, one past int32's reach
    h = 46_341
    k = np.arange(h, dtype=np.int32)
    A = ConstraintSet(2 * h, h, np.arange(h + 1, dtype=np.int32), k, k + h,
                      np.ones(h))
    sdp = SdpProblem(2 * h, SparseSymMatrix.identity(2 * h), A, np.ones(h),
                     ManifoldKind.FREE)
    with pytest.raises(ProblemError, match=re.escape(
            "the support block of the A_i, 46341 x 46341, has more than "
            "2^31 - 1 entries")):
        sdp._support_map()


def test_bqp_retains_under_35_bytes_per_triplet():
    # at q = 30 (154 166 triplets) the store and the support map kept
    # 54.3 B per triplet with an intp index, rows and columns; the int32
    # store and M with the store's offsets keep 34.2
    Q, c = gen.random_bqp(30, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sdp = gen.gen_bqp_moment(Q, c)
        sdp._support_map()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / sdp.A.vals.size < 35
