"""Benchmark generators: sizes, feasibility invariants, small oracles."""

import tracemalloc
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsdp import generators as gen
from lrsdp import problem as prob
from lrsdp.alm import solve
from lrsdp.generators import (WeightedGraph, gen_bqp_moment,
                              gen_matrix_completion, gen_maxcut,
                              gen_quartic_sphere)
from lrsdp.io_cli import read_sdpa, write_sdpa
from lrsdp.problem import ManifoldKind, ProblemError


class TestWeightedGraph:
    def test_valid(self):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, -0.5)))
        assert g.N == 3

    def test_bad_edges(self):
        with pytest.raises(ProblemError):
            WeightedGraph(2, ((1, 3, 1.0),))
        with pytest.raises(ProblemError):
            WeightedGraph(2, ((2, 1, 1.0),))
        with pytest.raises(ProblemError):
            WeightedGraph(3, ((1, 2, 1.0), (1, 2, 2.0)))

    @pytest.mark.parametrize("N,edges", [
        (0, ()), (-1, ()), (2, ((1, 2, np.nan),)), (3, ((2, 3, np.inf),)),
    ])
    def test_bad_node_count_or_weight(self, N, edges):
        with pytest.raises(ProblemError):
            WeightedGraph(N, edges)


class TestMaxcut:
    def test_single_edge_cost(self):
        sdp = gen_maxcut(gen.unit_edge_graph())
        # C = -L/4 with L = [[1,-1],[-1,1]]
        assert np.allclose(sdp.C.to_dense(),
                           np.array([[-0.25, 0.25], [0.25, -0.25]]))
        assert sdp.manifold is ManifoldKind.UNIT_DIAGONAL
        assert sdp.m == 0
        assert sdp.objective_sign == -1.0

    def test_laplacian_general(self, rng):
        g = WeightedGraph(4, ((1, 2, 2.0), (2, 3, 1.0), (1, 4, 0.5)))
        sdp = gen_maxcut(g)
        L = np.zeros((4, 4))
        for i, j, w in g.edges:
            L[i - 1, i - 1] += w
            L[j - 1, j - 1] += w
            L[i - 1, j - 1] -= w
            L[j - 1, i - 1] -= w
        assert np.allclose(sdp.C.to_dense(), -L / 4.0)

    def test_cut_value_identity(self, rng):
        # reported objective at a +-1 labeling x equals the cut weight
        g = WeightedGraph(5, ((1, 2, 1.5), (2, 3, 1.0), (3, 4, 2.0),
                              (4, 5, 0.5), (1, 5, 1.0)))
        sdp = gen_maxcut(g)
        for _ in range(10):
            x = rng.choice([-1.0, 1.0], size=5)
            cut = sum(w for i, j, w in g.edges if x[i - 1] != x[j - 1])
            val = sdp.reported_objective(prob.objective(sdp, x[:, None]))
            assert val == pytest.approx(cut, abs=1e-12)

    def test_empty_graph_rejected(self):
        with pytest.raises(ProblemError):
            gen_maxcut(WeightedGraph(3, ()))


def _samples(*triplets):
    """The (rows, cols, values) arrays of (i, j, value) samples."""
    i, j, v = zip(*triplets) if triplets else ((), (), ())
    return np.array(i, np.int64), np.array(j, np.int64), np.array(v, float)


class TestMatrixCompletion:
    def test_sizes(self):
        entries = _samples((0, 0, 1.0), (1, 2, 2.0))
        sdp = gen_matrix_completion(2, 3, entries)
        assert (sdp.n, sdp.m) == (5, 2)
        assert sdp.manifold is ManifoldKind.FREE
        assert np.allclose(sdp.C.to_dense(), np.eye(5))

    def test_constraint_encoding(self, rng):
        # <A_ij, X> picks twice the (i, s+j) entry; rhs is 2 M_ij
        sdp = gen_matrix_completion(2, 2, _samples((1, 0, 3.0)))
        Y = rng.standard_normal((4, 2))
        X = Y @ Y.T
        got = prob.apply_constraints(sdp, Y)[0]
        assert got == pytest.approx(2.0 * X[1, 2], rel=1e-12)
        assert sdp.b[0] == 6.0

    def test_scalar_instance_value(self):
        # M = [3]: optimal SDP trace is 2 * |3| = 6
        from lrsdp.alm import solve
        sol = solve(gen_matrix_completion(1, 1, _samples((0, 0, 3.0))))
        assert sol.status == "converged"
        assert sol.objective == pytest.approx(6.0, abs=1e-6)

    def test_rejects_bad_entries(self):
        with pytest.raises(ProblemError, match=r"duplicate sample \(0, 0\)"):
            gen_matrix_completion(2, 2, _samples((0, 0, 1.0), (0, 0, 2.0)))
        with pytest.raises(ProblemError, match="out of range"):
            gen_matrix_completion(2, 2, _samples((2, 0, 1.0)))
        with pytest.raises(ProblemError, match="out of range"):
            gen_matrix_completion(2, 2, _samples((0, -1, 1.0)))
        # a float or an object index array, not a cast
        for rows, cols in (([1, 0.5], [1, 0]), ([1, 0], [1, None])):
            with pytest.raises(ProblemError, match="integers"):
                gen_matrix_completion(2, 2, (np.array(rows), np.array(cols),
                                             np.ones(2)))

    def test_duplicate_found_out_of_order(self):
        # samples in increasing order skip the sort; these are not
        with pytest.raises(ProblemError, match=r"duplicate sample \(1, 0\)"):
            gen_matrix_completion(2, 2, _samples(
                (1, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)))

    @pytest.mark.parametrize("entries", [
        [(0, 0, 1.0), (1, 1, 2.0), (0, 1, 3.0)],
        tuple(_samples((0, 0, 1.0), (1, 1, 2.0))[:2]),
        _samples((0, 0, 1.0), (1, 1, 2.0))[:2] + (np.ones(3),),
        (np.array([0, 1]), np.array([0, 1]), [1.0, 2.0]),
        (np.array([[0, 1]]), np.array([[0, 1]]), np.ones((1, 2))),
        np.array([(0, 0, 1), (1, 1, 2), (0, 1, 3)]),
        (np.array([0, 1]), np.array([0, 1]), np.array(["a", "b"])),
    ], ids=["tuple-list", "pair", "unequal-lengths", "value-list", "2-d",
            "array-of-triplets", "string-values"])
    def test_rejects_anything_but_three_arrays(self, entries):
        # a list of (i, j, value) tuples, the former form, must not be read
        # as rows (0, 0, 1.0), cols (1, 1, 2.0) and values (0, 1, 3.0)
        with pytest.raises(ProblemError):
            gen_matrix_completion(2, 2, entries)

    @pytest.mark.parametrize("s,t,num_samples", [(3, 4, 7), (5, 2, 0),
                                                  (30, 20, 300)])
    def test_equals_a_set_built_directly(self, s, t, num_samples):
        # A_k pins X[i_k, s + j_k] with one triplet of value 1, b_k is
        # 2 M[i_k, j_k], and C is the identity
        M, (i, j, v) = gen.random_completion(s, t, 2, num_samples, 0)
        sdp = gen_matrix_completion(s, t, (i, j, v))
        want = prob.ConstraintSet(s + t, num_samples,
                                  np.arange(num_samples + 1), i, s + j,
                                  np.ones(num_samples))
        for f in ("start", "rows", "cols", "vals"):
            got, exp = getattr(sdp.A, f), getattr(want, f)
            assert got.dtype == exp.dtype and np.array_equal(got, exp)
        assert np.array_equal(sdp.b, 2.0 * M[i, j])
        assert np.array_equal(sdp.C.to_dense(), np.eye(s + t))
        assert sdp.manifold is ManifoldKind.FREE

    def test_keeps_no_view_of_the_caller_rows(self):
        rows, cols, vals = _samples((0, 1, 1.0), (1, 0, 2.0))
        sdp = gen_matrix_completion(2, 2, (rows, cols, vals))
        rows[0] = 1
        assert sdp.A.rows.tolist() == [0, 1]


def _bqp_moment_vector(x):
    q = x.size
    v = [1.0]
    v += [x[i] for i in range(q)]
    v += [x[i] * x[j] for i in range(q) for j in range(i + 1, q)]
    return np.array(v)


class TestBqpMoment:
    @pytest.mark.parametrize("q,n,m", [(10, 56, 1256), (20, 211, 16361)])
    def test_published_sizes(self, q, n, m):
        Q, c = gen.random_bqp(q, 0)
        sdp = gen_bqp_moment(Q, c)
        assert (sdp.n, sdp.m) == (n, m)

    def test_q3_structure(self):
        Q, c = gen.random_bqp(3, 1)
        sdp = gen_bqp_moment(Q, c)
        assert sdp.n == 7
        assert sdp.manifold is ManifoldKind.UNIT_DIAGONAL

    @given(st.integers(2, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rank_one_feasibility_and_objective(self, q, seed):
        # the moment vector of any x in {-1,1}^q satisfies every
        # constraint and reproduces x^T Q x + c^T x
        r = np.random.default_rng(seed)
        Q, c = gen.random_bqp(q, seed)
        sdp = gen_bqp_moment(Q, c)
        x = r.choice([-1.0, 1.0], size=q)
        v = _bqp_moment_vector(x)
        Y = v[:, None]
        resid = prob.apply_constraints(sdp, Y) - sdp.b
        assert np.max(np.abs(resid)) < 1e-12
        assert np.max(np.abs(sdp.manifold_residual(Y))) < 1e-12
        val = sdp.reported_objective(prob.objective(sdp, Y))
        assert val == pytest.approx(float(x @ Q @ x + c @ x), abs=1e-10)

    def test_constraints_pairwise_distinct(self):
        Q, c = gen.random_bqp(4, 2)
        sdp = gen_bqp_moment(Q, c)
        keys = set()
        for Ak in sdp.A:
            key = (tuple(Ak.rows), tuple(Ak.cols), tuple(Ak.vals))
            assert key not in keys
            keys.add(key)

    def test_rejects_bad_input(self):
        with pytest.raises(ProblemError):
            gen_bqp_moment(np.eye(1), np.zeros(1))
        with pytest.raises(ProblemError):
            gen_bqp_moment(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))

    def test_nan_reported_as_non_finite(self):
        # np.allclose failed first and called a NaN "Q must be symmetric"
        Q, c = gen.random_bqp(3, 0)
        Q[0, 1] = Q[1, 0] = np.nan
        with pytest.raises(ProblemError, match="NaN or inf"):
            gen_bqp_moment(Q, c)
        Q, c = gen.random_bqp(3, 0)
        c[2] = np.inf
        with pytest.raises(ProblemError, match="NaN or inf"):
            gen_bqp_moment(Q, c)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), ()])
    def test_c_must_be_one_dimensional(self, shape):
        # a c of shape (q, 1) built a relaxation without a complaint
        Q, c = gen.random_bqp(3, 0)
        with pytest.raises(ProblemError, match=r"c of shape \(q,\)"):
            gen_bqp_moment(Q, c.reshape(shape) if shape else c[0])


def _quartic_moment_vector(q, x):
    v = [1.0]
    v += [x[i] for i in range(q)]
    v += [x[i] * x[j] for i, j in combinations_with_replacement(range(q), 2)]
    return np.array(v)


def _poly_value(coeffs, x):
    return sum(cf * (np.prod(x[list(mono)]) if mono else 1.0)
               for mono, cf in coeffs.items())


class TestQuarticSphere:
    def test_sizes(self):
        sdp = gen_quartic_sphere(2, {(0, 0, 0, 0): 1.0})
        assert sdp.n == 6
        assert sdp.manifold is ManifoldKind.FREE
        sdp = gen_quartic_sphere(4, {(): 1.0})
        assert sdp.n == 1 + 4 + 10

    @given(st.integers(2, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rank_one_feasibility_and_objective(self, q, seed):
        r = np.random.default_rng(seed)
        coeffs = gen.random_quartic(q, seed)
        sdp = gen_quartic_sphere(q, coeffs)
        x = r.standard_normal(q)
        x /= np.linalg.norm(x)
        Y = _quartic_moment_vector(q, x)[:, None]
        resid = prob.apply_constraints(sdp, Y) - sdp.b
        assert np.max(np.abs(resid)) < 1e-10
        val = prob.objective(sdp, Y)
        assert val == pytest.approx(_poly_value(coeffs, x), abs=1e-10)

    def test_rejects_bad_monomials(self):
        with pytest.raises(ProblemError):
            gen_quartic_sphere(2, {(0, 0, 0, 0, 0): 1.0})
        with pytest.raises(ProblemError):
            gen_quartic_sphere(2, {(0, 2): 1.0})

    @pytest.mark.parametrize("q", [0, -2, 2.5, 2.0, np.float64(3.0), None])
    def test_rejects_q_not_a_positive_integer(self, q):
        # q = 0 once built an infeasible 1 x 1 relaxation (X_00 = 1 and
        # -X_00 = 0)
        with pytest.raises(ProblemError, match="q >= 1"):
            gen_quartic_sphere(q, {})

    def test_one_variable(self):
        # q = 1: x = +-1 on the sphere, so x^4 - x^2 is 0
        sdp = gen_quartic_sphere(1, {(0, 0, 0, 0): 1.0, (0, 0): -1.0})
        assert sdp.n == 3
        from lrsdp.alm import solve
        sol = solve(sdp)
        assert sol.status == "converged"
        assert sol.objective == pytest.approx(0.0, abs=1e-6)

    def test_constant_on_sphere(self):
        # (x1^2 + x2^2)^2 = 1 on the sphere
        from lrsdp.alm import solve
        coeffs = {(0, 0, 0, 0): 1.0, (0, 0, 1, 1): 2.0, (1, 1, 1, 1): 1.0}
        sol = solve(gen_quartic_sphere(2, coeffs))
        assert sol.status == "converged"
        assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_x1_fourth(self):
        from lrsdp.alm import solve
        sol = solve(gen_quartic_sphere(2, {(0, 0, 0, 0): 1.0}))
        assert sol.status == "converged"
        assert abs(sol.objective) <= 1e-7


@pytest.mark.parametrize("family", ["bqp", "quartic"])
def test_zero_cost_needs_no_stand_in_entry(family, tmp_path):
    # a relaxation whose cost has no term has an empty C: its solve
    # converges to 0 and the SDPA file carries no matrix-0 line
    sdp = gen_bqp_moment(np.zeros((3, 3)), np.zeros(3)) if family == "bqp" \
        else gen_quartic_sphere(2, {})
    assert sdp.C.nnz == 0
    sol = solve(sdp)
    assert sol.status == "converged"
    assert abs(sol.objective) <= 1e-6
    path = tmp_path / "p.dat-s"
    write_sdpa(sdp, path)
    assert not any(line.startswith("0 ")
                   for line in path.read_text().splitlines())
    assert read_sdpa(path).C.nnz == 0


class TestRandomInstances:
    def test_deterministic(self):
        assert np.array_equal(gen.random_bqp(5, 1)[0], gen.random_bqp(5, 1)[0])
        assert gen.random_quartic(3, 2) == gen.random_quartic(3, 2)
        M1, e1 = gen.random_completion(4, 5, 2, 10, 3)
        M2, e2 = gen.random_completion(4, 5, 2, 10, 3)
        assert np.array_equal(M1, M2)
        assert all(np.array_equal(a, b) for a, b in zip(e1, e2))

    @pytest.mark.parametrize("rank,num_samples,named", [
        (1, 10, "num_samples must be in 0..9"),
        (1, -1, "num_samples must be in 0..9"),
        (-1, 4, "rank must be at least 0")])
    def test_completion_arguments_out_of_range(self, rank, num_samples,
                                               named):
        with pytest.raises(ProblemError, match=named):
            gen.random_completion(3, 3, rank, num_samples, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_completion_draws_the_list_based_sample(self, seed):
        # the benchmark's instances: the same population size s t, so the
        # same draw as a choice over the list of every index pair
        s, t, rank, num_samples = 200, 200, 3, 10_000
        M, entries = gen.random_completion(s, t, rank, num_samples, seed)
        rng = np.random.default_rng(seed)
        assert np.array_equal(M, rng.standard_normal((s, rank))
                              @ rng.standard_normal((rank, t)))
        all_idx = [(i, j) for i in range(s) for j in range(t)]
        chosen = rng.choice(len(all_idx), size=num_samples, replace=False)
        assert list(zip(*(a.tolist() for a in entries))) == [
            (*all_idx[k], M[all_idx[k]]) for k in sorted(chosen)]
        assert [a.dtype for a in entries] == [np.int64, np.int64, np.float64]

    def test_completion_needs_no_list_of_every_index_pair(self):
        # 10^6 index pairs as Python tuples take ~90 MB; the sample alone
        # and the 8 MB matrix stay far below that
        tracemalloc.start()
        try:
            gen.random_completion(1000, 1000, 3, 10_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_empty_completion(self):
        M, entries = gen.random_completion(3, 4, 1, 0, 0)
        assert M.shape == (3, 4) and all(a.size == 0 for a in entries)
        sdp = gen_matrix_completion(3, 4, entries)
        assert (sdp.n, sdp.m) == (7, 0)

    def test_completion_samples_valid(self):
        M, entries = gen.random_completion(4, 5, 1, 12, 0)
        assert all(a.size == 12 for a in entries)
        assert len(set(zip(*(a.tolist() for a in entries[:2])))) == 12
        for i, j, v in zip(*entries):
            assert v == M[i, j]

    @pytest.mark.parametrize("s,t,num_samples,seed", [
        (4, 5, 12, 0), (1, 7, 7, 1), (30, 40, 600, 2), (3, 3, 0, 3)])
    def test_completion_samples_are_three_arrays(self, s, t, num_samples,
                                                 seed):
        # int64 rows and columns, distinct and in row-major order, and the
        # float64 values M[i, j]
        M, entries = gen.random_completion(s, t, 2, num_samples, seed)
        assert isinstance(entries, tuple) and len(entries) == 3
        i, j, v = entries
        assert (i.dtype, j.dtype, v.dtype) == (np.int64, np.int64,
                                               np.float64)
        assert i.shape == j.shape == v.shape == (num_samples,)
        assert np.all((0 <= i) & (i < s) & (0 <= j) & (j < t))
        flat = i * t + j
        assert np.all(flat[1:] > flat[:-1])
        assert v.tobytes() == M[i, j].tobytes()

    def test_completion_at_a_million_samples(self):
        # 10^6 samples of a 2000 x 2000 matrix: no Python object per
        # sample in the draw or the build (tuples took ~260 MB)
        tracemalloc.start()
        try:
            _, entries = gen.random_completion(2000, 2000, 3, 10**6, 0)
            sdp = gen_matrix_completion(2000, 2000, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sdp.m == 10**6
        assert peak < 130e6
