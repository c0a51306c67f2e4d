"""Problem data model against dense oracles."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_MANIFOLDS, dense_bstar, dense_constraint_values, \
    random_problem, random_sym_triplets
from lrsdp import generators as gen
from lrsdp import problem as prob
from lrsdp.problem import (KktResidues, ManifoldKind, ProblemError,
                           SdpProblem, SparseSymMatrix)


class TestSparseSymMatrix:
    def test_round_trip_dense(self, rng):
        trips = random_sym_triplets(6, 8, rng)
        A = SparseSymMatrix.from_triplets(6, trips)
        D = A.to_dense()
        assert np.array_equal(D, D.T)
        for i, j, v in trips:
            assert D[i, j] == v and D[j, i] == v

    def test_lower_triangle_input_canonicalized(self):
        A = SparseSymMatrix.from_triplets(3, [(2, 0, 1.5)])
        assert A.rows[0] == 0 and A.cols[0] == 2
        assert A.to_dense()[0, 2] == 1.5

    def test_duplicates_rejected(self):
        with pytest.raises(ProblemError):
            SparseSymMatrix.from_triplets(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ProblemError):
            SparseSymMatrix.from_triplets(2, [(0, 2, 1.0)])
        with pytest.raises(ProblemError):
            SparseSymMatrix.from_triplets(2, [(-1, 0, 1.0)])

    def test_bad_dimension_rejected(self):
        with pytest.raises(ProblemError):
            SparseSymMatrix.from_triplets(0, [])

    def test_identity(self):
        assert np.array_equal(SparseSymMatrix.identity(4).to_dense(),
                              np.eye(4))

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_inner_product_convention(self, n, seed):
        # <A, X> = sum of val * X entry, off-diagonal entries twice
        r = np.random.default_rng(seed)
        trips = random_sym_triplets(n, min(n, 4), r)
        A = SparseSymMatrix.from_triplets(n, trips)
        Y = r.standard_normal((n, 2))
        X = Y @ Y.T
        want = float(np.sum(A.to_dense() * X))
        got = sum(v * X[i, j] * (2.0 if i != j else 1.0) for i, j, v in trips)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _from_triplets_oracle(n, triplets):
    """The original list-comprehension build, kept as the reference for
    ``from_triplets``: (rows, cols, vals) or the ProblemError message."""
    if n <= 0:
        raise ProblemError(f"dimension must be positive, got {n}")
    if not triplets:
        z = np.zeros(0)
        return z.astype(np.intp), z.astype(np.intp), z
    r = np.array([t[0] for t in triplets], dtype=np.intp)
    c = np.array([t[1] for t in triplets], dtype=np.intp)
    v = np.array([t[2] for t in triplets], dtype=float)
    lo, hi = np.minimum(r, c), np.maximum(r, c)
    if lo.min() < 0 or hi.max() >= n:
        raise ProblemError("triplet index out of range")
    key = lo * n + hi
    if np.unique(key).size != key.size:
        raise ProblemError("duplicate (row, col) entry")
    else:
        order = np.argsort(key)
        lo, hi, v = lo[order], hi[order], v[order]
    return lo, hi, v


class TestFromTriplets:
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1),
                           st.floats(-1e3, 1e3)), max_size=6))))
    @settings(max_examples=300, deadline=None)
    def test_matches_original_build(self, case):
        n, trips = case
        try:
            want = _from_triplets_oracle(n, trips)
        except ProblemError as exc:
            with pytest.raises(ProblemError, match=re.escape(str(exc))):
                SparseSymMatrix.from_triplets(n, trips)
            return
        got = SparseSymMatrix.from_triplets(n, trips)
        for g, w in zip((got.rows, got.cols, got.vals), want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("bad", [1.5, None, "1", 2.0])
    @pytest.mark.parametrize("pos", [0, 1])
    def test_non_integer_index_rejected(self, bad, pos):
        # 1.5 used to be truncated to 1, None raised a bare TypeError
        trip = [0, 1, 1.0]
        trip[pos] = bad
        with pytest.raises(ProblemError, match="integers"):
            SparseSymMatrix.from_triplets(3, [(1, 1, 2.0), tuple(trip)])
        with pytest.raises(ProblemError, match="integers"):
            SparseSymMatrix.from_triplets(3, [tuple(trip)])

    def test_numpy_integer_indices_accepted(self):
        A = SparseSymMatrix.from_triplets(
            3, [(np.int64(2), np.int32(0), 1.0), (np.uint8(1), 1, 2.0)])
        assert A.rows.dtype == np.intp
        assert A.to_dense()[0, 2] == 1.0 and A.to_dense()[1, 1] == 2.0


class TestSdpProblem:
    def test_shape_validation(self, rng):
        C = SparseSymMatrix.identity(3)
        with pytest.raises(ProblemError):
            SdpProblem(4, C, [], np.zeros(0), ManifoldKind.FREE)
        with pytest.raises(ProblemError):
            SdpProblem(3, C, [C], np.zeros(2), ManifoldKind.FREE)
        with pytest.raises(ProblemError):
            SdpProblem(3, C, [SparseSymMatrix.identity(2)], np.zeros(1),
                       ManifoldKind.FREE)

    def test_apply_constraints_oracle(self, rng):
        for manifold in ManifoldKind:
            sdp = random_problem(6, 4, manifold, rng)
            Y = rng.standard_normal((6, 3))
            want = dense_constraint_values(sdp, Y @ Y.T)
            assert np.allclose(prob.apply_constraints(sdp, Y), want,
                               atol=1e-12)

    def test_constraint_index(self, rng):
        # A.index[t] is the constraint that flattened triplet t belongs to
        A = [SparseSymMatrix.from_triplets(5, random_sym_triplets(5, k, rng))
             for k in (3, 1, 4)]
        A.insert(1, SparseSymMatrix.from_triplets(5, []))
        sdp = SdpProblem(5, A[0], A, np.zeros(4), ManifoldKind.FREE)
        want = np.concatenate([np.full(Ak.nnz, k, dtype=np.intp)
                               for k, Ak in enumerate(A)])
        assert sdp.A.index.dtype == np.intp
        assert np.array_equal(sdp.A.index, want)
        empty = random_problem(4, 0, ManifoldKind.FREE, rng)
        assert empty.A.index.dtype == np.intp
        assert empty.A.index.shape == (0,)

    def test_apply_constraints_no_constraints(self, rng):
        # m = 0 takes the one code path through the empty map: each of the
        # four products returns its zeros, and none forms an n x n array
        # but adjoint_dense's result (the map's build counted in the first)
        n = 2000
        sdp = random_problem(n, 0, ManifoldKind.FREE, rng)
        Y, U = rng.standard_normal((2, n, 2))
        v = np.zeros(0)
        for call, shape in (
                (lambda: prob.apply_constraints(sdp, Y), (0,)),
                (lambda: prob.apply_constraints_sym(sdp, Y, U), (0,)),
                (lambda: prob.apply_adjoint_times(sdp, v, U), (n, 2)),
                (lambda: prob.adjoint_dense(sdp, v), (n, n))):
            tracemalloc.start()
            try:
                got = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.shape == shape and got.dtype == np.float64
            assert not np.any(got)
            assert peak < got.nbytes + 4 * n * n  # half an n x n array
        assert sdp._support_map().shape == (0, 0)

    @staticmethod
    def _shared_position_problem(rng, draw):
        # 400 constraints of 25 triplets each at n = 120, values from draw:
        # many positions shared by several constraints, some diagonal
        n, m, nnz = 120, 400, 25
        iu, ju = np.triu_indices(n)
        A = []
        for _ in range(m):
            pick = np.sort(rng.choice(iu.size, nnz, replace=False))
            A.append(SparseSymMatrix(n, iu[pick], ju[pick], draw(nnz)))
        sdp = SdpProblem(n, SparseSymMatrix.identity(n), A,
                         rng.standard_normal(m), ManifoldKind.FREE)
        rows, cols = sdp.A.rows, sdp.A.cols
        assert np.unique(rows * n + cols).size < m * nnz  # shared positions
        assert np.any(rows == cols)  # diagonal triplets
        tw = sdp.A.vals * np.where(rows != cols, 2.0, 1.0)
        return sdp, tw, nnz

    @staticmethod
    def _per_triplet(sdp, tw, Y):
        # the per-triplet formula sum_t tw_t Y_r . Y_c, kept as the oracle
        prod = np.einsum("ij,ij->i", Y[sdp.A.rows], Y[sdp.A.cols])
        return np.bincount(sdp.A.index, weights=tw * prod, minlength=sdp.m)

    @pytest.mark.parametrize("denominator", [None, 4096])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [1, 3, 21])
    def test_apply_constraints_bitwise_per_triplet(self, p, order,
                                                   denominator, rng):
        # on data whose products and partial sums are all exact, any
        # summation order gives the exact value, so the map pass must give
        # the oracle's bits: a wrong weight, a lost mirror or a doubled
        # diagonal shows as a difference. The data are integers in
        # [-3, 3] (denominator None) or such integers / 4096; then every
        # partial sum is a multiple of 4096^-3 below 2^15 in magnitude,
        # which needs at most 51 bits
        scale = 1.0 if denominator is None else 1.0 / denominator

        def draw(*shape):
            k = rng.integers(1, 4, shape) * rng.choice([-1, 1], shape)
            return k * scale

        sdp, tw, _ = self._shared_position_problem(rng, draw)
        Y = np.asarray(draw(sdp.n, p), order=order)
        got = prob.apply_constraints(sdp, Y)
        assert got.shape == (sdp.m,)
        assert np.array_equal(got, self._per_triplet(sdp, tw, Y))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [1, 3, 21])
    def test_apply_constraints_per_triplet_oracle(self, p, order, rng):
        # one pass of the adjoint map over Y Y^T against the per-triplet
        # formula on random data. The two sum in different orders, so they
        # agree to a rounding bound, not bit for bit: each is a sum of at
        # most p + 2 nnz + 1 rounded terms per constraint, so each is
        # within (p + 2 nnz + 1) eps sum_t |tw_t| |Y_r| . |Y_c| of the exact
        # value, to first order, and twice that bounds their difference
        sdp, tw, nnz = self._shared_position_problem(
            rng, rng.standard_normal)
        Y = np.asarray(rng.standard_normal((sdp.n, p)), order=order)
        want = self._per_triplet(sdp, tw, Y)
        scale = self._per_triplet(sdp, np.abs(tw), np.abs(Y))
        bound = 2 * (p + 2 * nnz + 1) * np.finfo(float).eps * scale
        got = prob.apply_constraints(sdp, Y)
        assert got.shape == (sdp.m,)
        assert np.all(np.abs(got - want) <= bound)

    def test_apply_constraints_sym_oracle(self, rng):
        # A_0 and A_1 share position (0, 1); both hold diagonal triplets
        shared = [SparseSymMatrix.from_triplets(
                      4, [(0, 0, 1.5), (0, 1, -2.0), (3, 3, 0.5)]),
                  SparseSymMatrix.from_triplets(
                      4, [(0, 1, 3.0), (2, 2, -1.0)])]
        C = SparseSymMatrix.identity(4)
        problems = [random_problem(6, 4, ManifoldKind.FREE, rng),
                    SdpProblem(4, C, shared, np.zeros(2), ManifoldKind.FREE)]
        for sdp in problems:
            Y = rng.standard_normal((sdp.n, 3))
            U = rng.standard_normal((sdp.n, 3))
            want = dense_constraint_values(sdp, Y @ U.T + U @ Y.T)
            assert np.allclose(prob.apply_constraints_sym(sdp, Y, U), want,
                               atol=1e-12)

    @pytest.mark.parametrize("where", ["C", "b", "A", "sign", "offset"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, where, bad):
        # a non-finite C, b, A_i, objective sign or offset is rejected as
        # the problem is built
        with pytest.raises(ProblemError, match="NaN or inf"):
            C = SparseSymMatrix.from_triplets(
                2, [(0, 0, bad if where == "C" else 1.0)])
            A = [SparseSymMatrix.from_triplets(
                2, [(0, 1, bad if where == "A" else 1.0)])]
            b = np.array([bad if where == "b" else 1.0])
            SdpProblem(2, C, A, b, ManifoldKind.FREE,
                       objective_sign=bad if where == "sign" else 1.0,
                       objective_offset=bad if where == "offset" else 0.0)

    @pytest.mark.parametrize("where", ["C", "A"])
    @pytest.mark.parametrize("rows,cols,match", [
        ([0, 1], [1, 0], "0 <= row <= col < n"),  # mirrored pair
        ([1], [0], "0 <= row <= col < n"),
        ([0], [2], "0 <= row <= col < n"),
        ([-1], [0], "0 <= row <= col < n"),
        ([0, 0], [1, 1], "duplicate"),
    ])
    def test_malformed_triplets_rejected(self, where, rows, cols, match):
        # data built with the constructor skips from_triplets' checks
        bad = SparseSymMatrix(2, np.array(rows), np.array(cols),
                              np.arange(1.0, len(rows) + 1))
        good = SparseSymMatrix.identity(2)
        C, A = (bad, [good]) if where == "C" else (good, [good, bad])
        with pytest.raises(ProblemError, match=re.escape(match)):
            SdpProblem(2, C, A, np.zeros(len(A)), ManifoldKind.FREE)

    def test_positions_shared_across_matrices_accepted(self):
        M = SparseSymMatrix.from_triplets(2, [(0, 1, 1.0), (1, 1, 2.0)])
        sdp = SdpProblem(2, M, [M, M], np.zeros(2), ManifoldKind.FREE)
        assert np.array_equal(prob.apply_constraints(sdp, np.ones((2, 1))),
                              [4.0, 4.0])

    def test_adjoint_identity(self, rng):
        # <A(Y Y^T), v> = <Y Y^T, A*(v)> for random data
        sdp = random_problem(5, 3, ManifoldKind.FREE, rng)
        Y = rng.standard_normal((5, 2))
        v = rng.standard_normal(3)
        lhs = float(np.dot(prob.apply_constraints(sdp, Y), v))
        rhs = float(np.sum((Y @ Y.T) * prob.adjoint_dense(sdp, v)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_apply_adjoint_times_oracle(self, rng):
        sdp = random_problem(5, 3, ManifoldKind.FREE, rng)
        v = rng.standard_normal(3)
        V = rng.standard_normal((5, 2))
        assert np.allclose(prob.apply_adjoint_times(sdp, v, V),
                           prob.adjoint_dense(sdp, v) @ V, atol=1e-12)

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("manifold", ALL_MANIFOLDS)
    def test_dual_slack_oracle(self, manifold, m, rng):
        sdp = random_problem(6, m, manifold, rng)
        y = rng.standard_normal(m)
        z = rng.standard_normal(sdp.manifold_rhs().size)
        A_y = sum((yk * Ak.to_dense() for yk, Ak in zip(y, sdp.A)),
                  np.zeros((6, 6)))
        want = sdp.C.to_dense() - A_y
        S = prob.dual_slack(sdp, y, z)
        assert np.allclose(S, want - dense_bstar(manifold, z, 6),
                           atol=1e-12)
        assert np.array_equal(S, S.T)
        assert np.allclose(prob.dual_slack(sdp, y), want, atol=1e-12)

    @pytest.mark.parametrize("family", ["bqp", "completion", "m=0"])
    def test_dual_slack_bytes_of_c_minus_adjoint(self, family, rng):
        # one n x n array, A*(-y) plus C's triplets, has the bits of the
        # dense C less A*(y); with m = 0, S is the adjoint's zero array
        # plus C
        if family == "bqp":
            sdp = gen.gen_bqp_moment(*gen.random_bqp(8, 0))
        elif family == "completion":
            _, entries = gen.random_completion(20, 20, 3, 200, 0)
            sdp = gen.gen_matrix_completion(20, 20, entries)
        else:
            sdp = random_problem(6, 0, ManifoldKind.UNIT_DIAGONAL, rng)
        y = rng.standard_normal(sdp.m)
        z = rng.standard_normal(sdp.manifold_rhs().size)
        want = sdp.C.to_dense() - prob.adjoint_dense(sdp, y)
        assert prob.dual_slack(sdp, y).tobytes() == want.tobytes()
        want -= dense_bstar(sdp.manifold, z, sdp.n)
        assert prob.dual_slack(sdp, y, z).tobytes() == want.tobytes()

    def test_objective_oracle(self, rng):
        sdp = random_problem(6, 0, ManifoldKind.FREE, rng)
        Y = rng.standard_normal((6, 2))
        want = float(np.sum(sdp.C.to_dense() * (Y @ Y.T)))
        assert prob.objective(sdp, Y) == pytest.approx(want, rel=1e-12)

    def test_reported_objective(self):
        C = SparseSymMatrix.identity(2)
        sdp = SdpProblem(2, C, [], np.zeros(0), ManifoldKind.FREE,
                         objective_sign=-1.0, objective_offset=5.0)
        assert sdp.reported_objective(2.0) == 3.0

    def test_manifold_rhs(self):
        C = SparseSymMatrix.identity(3)
        free = SdpProblem(3, C, [], np.zeros(0), ManifoldKind.FREE)
        tr = SdpProblem(3, C, [], np.zeros(0), ManifoldKind.UNIT_TRACE)
        di = SdpProblem(3, C, [], np.zeros(0), ManifoldKind.UNIT_DIAGONAL)
        assert free.manifold_rhs().size == 0
        assert np.array_equal(tr.manifold_rhs(), np.ones(1))
        assert np.array_equal(di.manifold_rhs(), np.ones(3))

    def test_manifold_residual(self, rng):
        C = SparseSymMatrix.identity(3)
        sdp = SdpProblem(3, C, [], np.zeros(0), ManifoldKind.UNIT_TRACE)
        Y = rng.standard_normal((3, 2))
        want = np.sum(Y * Y) - 1.0
        assert sdp.manifold_residual(Y)[0] == pytest.approx(want, rel=1e-12)

    def test_bad_factor_shape(self, rng):
        sdp = random_problem(4, 1, ManifoldKind.FREE, rng)
        with pytest.raises(ProblemError):
            prob.apply_constraints(sdp, np.zeros((5, 2)))
        with pytest.raises(ProblemError):
            prob.apply_adjoint_times(sdp, np.zeros(2), np.zeros((4, 2)))

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (4,)])
    def test_direction_shape_must_be_the_factors(self, shape, rng):
        # a U of another shape than Y used to raise numpy's gufunc error
        sdp = random_problem(4, 2, ManifoldKind.FREE, rng)
        with pytest.raises(ProblemError):
            prob.apply_constraints_sym(sdp, np.ones((4, 2)), np.ones(shape))

    @pytest.mark.parametrize("length", [2, 4, 0])
    def test_multiplier_length_checked(self, length, rng):
        # with m > 0 a wrong length used to raise numpy's matmul error
        sdp = random_problem(5, 3, ManifoldKind.FREE, rng)
        v, V = np.zeros(length), np.ones((5, 2))
        for call in (lambda: prob.adjoint_dense(sdp, v),
                     lambda: prob.dual_slack(sdp, v),
                     lambda: prob.apply_adjoint_times(sdp, v, V)):
            with pytest.raises(ProblemError,
                               match=re.escape(f"({length},) != m = 3")):
                call()

    def test_multiplier_length_checked_without_constraints(self):
        # with m = 0 any length used to pass: 3 x 3 zeros for 5 multipliers
        sdp = gen.gen_maxcut(gen.unit_triangle_graph())
        assert sdp.m == 0
        for call in (prob.adjoint_dense, prob.dual_slack):
            with pytest.raises(ProblemError, match=r"\(5,\) != m = 0"):
                call(sdp, np.zeros(5))
        assert np.array_equal(prob.adjoint_dense(sdp, np.zeros(0)),
                              np.zeros((3, 3)))


class TestKktResidues:
    def test_eta_max(self):
        assert KktResidues(0.1, 0.3, 0.2).eta_max == 0.3

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_eta_max_propagates_nan(self, pos):
        etas = [0.1, 0.3, 0.2]
        etas[pos] = float("nan")
        assert np.isnan(KktResidues(*etas).eta_max)

    def test_formulas(self, rng):
        # independent recomputation of each scaled residue
        sdp = random_problem(5, 2, ManifoldKind.UNIT_DIAGONAL, rng)
        Y = rng.standard_normal((5, 2))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        y = rng.standard_normal(2)
        z = rng.standard_normal(5)
        lam_min, lam_max = -0.5, 2.0
        res = prob.kkt_residues(sdp, Y, y, z, lam_min, lam_max)
        ra = dense_constraint_values(sdp, Y @ Y.T) - sdp.b
        rb = np.diag(Y @ Y.T) - 1.0
        assert res.eta_p == pytest.approx(
            np.sqrt(ra @ ra + rb @ rb) / (1.0 + np.linalg.norm(sdp.b)),
            rel=1e-12)
        assert res.eta_d == pytest.approx(0.5 / 3.0, rel=1e-12)
        pobj = float(np.sum(sdp.C.to_dense() * (Y @ Y.T)))
        dobj = float(sdp.b @ y + np.sum(z))
        assert res.eta_g == pytest.approx(
            abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)), rel=1e-12)

    @pytest.mark.parametrize("where", ["Y", "y", "z"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_primal_or_gap_residue_raises(self, where, bad, rng):
        sdp = random_problem(4, 2, ManifoldKind.UNIT_DIAGONAL, rng)
        data = {"Y": rng.standard_normal((4, 2)),
                "y": rng.standard_normal(2), "z": rng.standard_normal(4)}
        data[where].flat[0] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(ProblemError, match="non-finite KKT residue"):
            prob.primal_gap_residues(sdp, data["Y"], data["y"], data["z"])

    @pytest.mark.parametrize("lam_min,lam_max", [
        (np.nan, 1.0), (-np.inf, 1.0), (-1.0, np.nan)])
    def test_non_finite_dual_residue_raises(self, lam_min, lam_max):
        with pytest.raises(ProblemError, match="non-finite KKT residue"):
            prob.dual_residue(lam_min, lam_max)

    def test_psd_slack_certifies(self, rng):
        sdp = random_problem(4, 1, ManifoldKind.FREE, rng)
        Y = rng.standard_normal((4, 2))
        res = prob.kkt_residues(sdp, Y, np.zeros(1), np.zeros(0), 0.3, 1.0)
        assert res.eta_d == 0.0


def _coo_support_map(sdp):
    """The support map built by scipy from COO triplets: R and C from
    ``np.unique``, each triplet at (k, r' |C| + c'), diagonal values
    halved. Returns (R, C, M) with R and C as index arrays."""
    A = sdp.A
    R, C = np.unique(A.rows), np.unique(A.cols)
    pos = np.searchsorted(R, A.rows) * C.size + np.searchsorted(C, A.cols)
    v = np.where(A.rows == A.cols, 0.5, 1.0) * A.vals
    return R, C, sp.csr_matrix((v, (A.index, pos)),
                               shape=(sdp.m, R.size * C.size))


def _shared_diagonal_problem():
    rng = np.random.default_rng(7)
    sdp = random_problem(6, 9, ManifoldKind.FREE, rng, nnz=8)
    flat = sdp.A.rows * sdp.n + sdp.A.cols
    assert np.any(sdp.A.rows == sdp.A.cols)
    assert np.unique(flat).size < flat.size  # positions shared by A_i
    return sdp


@pytest.mark.parametrize("make", [
    *(lambda q=q: gen.gen_bqp_moment(*gen.random_bqp(q, q)) for q in
      (3, 8, 16)),
    lambda: gen.gen_matrix_completion(
        7, 5, gen.random_completion(7, 5, 2, 20, 0)[1]),
    lambda: gen.gen_maxcut(gen.unit_triangle_graph()),
    _shared_diagonal_problem,
], ids=["bqp3", "bqp8", "bqp16", "completion", "maxcut", "random"])
def test_adjoint_map_bytes_match_coo_build(make):
    sdp = make()
    got = sdp._support_map()
    R, C, want = _coo_support_map(sdp)
    every = np.arange(sdp.n)
    assert np.array_equal(every[got.rows], R)
    assert np.array_equal(every[got.cols], C)
    assert got.shape == (R.size, C.size)
    assert got.M.shape == want.shape
    assert got.MT.shape == want.shape[::-1]
    for f in ("indptr", "indices", "data"):
        g, w = getattr(got.M, f), getattr(want, f)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert g.size == 0 or np.shares_memory(getattr(got.MT, f), g)


def test_adjoint_map_build_peak():
    # the COO build peaked at ~245 B per constraint against ~52 B kept
    sdp = gen.gen_bqp_moment(*gen.random_bqp(16, 0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sdp._support_map()
        retained, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * retained


@pytest.mark.parametrize("family", ["completion", "bqp"])
def test_support_block_of_the_generators(family):
    # completion: every A_i lies in the off-diagonal block, rows 0..s-1 by
    # columns s..n-1, one triplet each; BQP: the A_i touch all of X
    if family == "completion":
        s = t = 20
        sdp = gen.gen_matrix_completion(
            s, t, gen.random_completion(s, t, 3, 200, 0)[1])
        assert np.unique(sdp.A.rows).size == s  # every row was sampled
        assert np.unique(sdp.A.cols).size == t
        want = (slice(0, s), slice(s, s + t))
    else:
        sdp = gen.gen_bqp_moment(*gen.random_bqp(8, 0))
        want = (slice(0, sdp.n), slice(0, sdp.n))
    got = sdp._support_map()
    assert (got.rows, got.cols) == want
    assert got.M.nnz == sdp.A.rows.size
    if family == "completion":
        assert got.M.nnz == sdp.m


@pytest.mark.parametrize("layout", ["arrays", "rows-slice", "cols-slice"])
def test_products_on_a_scattered_support(layout, rng):
    # R and C not contiguous (or one of them), positions shared by several
    # A_i and diagonal triplets: every product against the dense
    # sum_i v_i A_i, within the oracles' rounding bound
    n, m = 14, 30
    R = {"arrays": [1, 3, 4, 8, 10], "rows-slice": [2, 3, 4, 5],
         "cols-slice": [0, 2, 7, 9]}[layout]
    C = {"arrays": [3, 5, 8, 10, 13], "rows-slice": [4, 6, 9, 12, 13],
         "cols-slice": [7, 8, 9, 10, 11, 12]}[layout]
    pos = [(r, c) for r in R for c in C if r <= c]
    A = []
    for _ in range(m):
        pick = sorted(rng.choice(len(pos), 6, replace=False))
        A.append(SparseSymMatrix(n, np.array([pos[k][0] for k in pick]),
                                 np.array([pos[k][1] for k in pick]),
                                 rng.standard_normal(6)))
    sdp = SdpProblem(n, SparseSymMatrix.identity(n), A,
                     rng.standard_normal(m), ManifoldKind.FREE)
    rows, cols = sdp.A.rows, sdp.A.cols
    assert np.any(rows == cols)  # diagonal triplets
    assert np.unique(rows * n + cols).size < rows.size  # shared positions
    got = sdp._support_map()
    every = np.arange(n)
    assert np.array_equal(every[got.rows], np.unique(rows))
    assert np.array_equal(every[got.cols], np.unique(cols))
    assert isinstance(got.rows, slice) == (layout == "rows-slice")
    assert isinstance(got.cols, slice) == (layout == "cols-slice")
    Ad = [Ak.to_dense() for Ak in sdp.A]
    for p in (1, 3):
        Y, U, V = rng.standard_normal((3, n, p))
        v = rng.standard_normal(m)
        D = sum(vk * Ak for vk, Ak in zip(v, Ad))
        assert np.allclose(prob.apply_constraints(sdp, Y),
                           dense_constraint_values(sdp, Y @ Y.T), atol=1e-12)
        assert np.allclose(prob.apply_constraints_sym(sdp, Y, U),
                           dense_constraint_values(sdp, Y @ U.T + U @ Y.T),
                           atol=1e-12)
        assert np.allclose(prob.apply_adjoint_times(sdp, v, V), D @ V,
                           atol=1e-12)
        dense = prob.adjoint_dense(sdp, v)
        assert np.array_equal(dense, dense.T)
        assert np.allclose(dense, D, atol=1e-12)


def _slack_problem(family, manifold, seed):
    """A problem whose A_i have the named support, on ``manifold``: all of
    X (a BQP and a quartic moment relaxation), one off-diagonal block
    (completion), overlapping contiguous R and C (random A_i, as on the
    sphere), scattered R, C and overlap K (index arrays) or none (m = 0)."""
    rng = np.random.default_rng(seed)
    if family == "full":
        base = gen.gen_bqp_moment(*gen.random_bqp(3, seed))
    elif family == "quartic":
        base = gen.gen_quartic_sphere(2, gen.random_quartic(2, seed))
    elif family == "disjoint":
        base = gen.gen_matrix_completion(
            4, 5, gen.random_completion(4, 5, 2, 12, seed)[1])
    elif family == "overlapping":
        base = random_problem(9, 4, manifold, rng, nnz=5)
    elif family == "scattered":
        n, R, C = 14, [1, 3, 4, 8, 10], [3, 5, 8, 10, 13]
        pos = [(r, c) for r in R for c in C if r <= c]
        A = [SparseSymMatrix(n, *np.array([pos[k] for k in pick]).T,
                             rng.standard_normal(6))
             for pick in (np.sort(rng.choice(len(pos), 6, replace=False))
                          for _ in range(5))]
        base = SdpProblem(n, SparseSymMatrix.from_triplets(
            n, random_sym_triplets(n, 9, rng)), A, np.zeros(5), manifold)
    else:
        base = random_problem(7, 0, manifold, rng)
    return SdpProblem(base.n, base.C, base.A, base.b, manifold)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["full", "quartic", "disjoint", "overlapping",
                               "scattered", "empty"]),
       manifold=st.sampled_from(ALL_MANIFOLDS),
       seed=st.integers(0, 2**16), p=st.integers(1, 4),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_slack_matches_the_dense_slack(family, manifold, seed, p, scale):
    # the product and the Frobenius norm of S~ = C - A*(w) against the
    # dense dual_slack, to 1e-12 relative, on every support layout; dense
    # S~ only where the A_i touch all of X, and then its very bits. S =
    # S~ - B*(z) from ``dual`` has the bits of dual_slack(sdp, w, z) and
    # leaves the held S~ as it was. The maps' A(C) and K against dense
    # and set oracles
    sdp = _slack_problem(family, manifold, seed)
    rng = np.random.default_rng(seed + 1)
    w = scale * rng.standard_normal(sdp.m)
    V = rng.standard_normal((sdp.n, p))
    want = prob.dual_slack(sdp, w)
    slack = prob.Slack(sdp, w)
    R, C = sdp._support_map()[:2]
    K, KR, KC = np.intersect1d(np.arange(sdp.n)[R], np.arange(sdp.n)[C],
                               return_indices=True)
    overlap = sdp._support_map().overlap
    assert np.array_equal(overlap[0].ravel(), KR)
    assert np.array_equal(overlap[1].ravel(), KC)
    terms = [Ak.to_dense() * sdp.C.to_dense() for Ak in sdp.A]
    a_c = sdp._cost_map().a_of_c
    assert a_c.shape == (sdp.m,)
    assert all(abs(a - np.sum(t)) <= 1e-12 * np.sum(np.abs(t))
               for a, t in zip(a_c, terms))
    if family == "disjoint":
        assert not np.any(a_c)
    assert (slack.dense is not None) == (family in ("full", "quartic"))
    assert (K.size > 0) == (family not in ("disjoint", "empty"))
    assert (sdp.m == 0) == (family == "empty")
    if slack.dense is not None:
        assert slack.dense.tobytes() == want.tobytes()
    z = rng.standard_normal(sdp.manifold_rhs().size)
    assert slack.dual(z).tobytes() == prob.dual_slack(sdp, w, z).tobytes()
    if slack.dense is not None:
        assert slack.dense.tobytes() == want.tobytes()
    got = slack.times(V)
    assert got.shape == V.shape
    assert np.linalg.norm(got - want @ V) \
        <= 1e-12 * np.linalg.norm(want) * np.linalg.norm(V)
    assert abs(slack.norm() - np.linalg.norm(want)) \
        <= 1e-12 * np.linalg.norm(want)
