"""Eigensolver and SVD utilities against numpy dense references."""

import numpy as np
import pytest

from lrsdp.spectral import (SymOperator, extreme_eigs,
                            proves_curvature_above, thin_svd)


def _random_sym(n, rng):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def _counted(monkeypatch, *routines):
    """Replace each numpy.linalg routine by one that records its argument;
    returns {routine: list of arguments}."""
    calls = {}
    for name in routines:
        routine, calls[name] = getattr(np.linalg, name), []

        def counted(M, routine=routine, seen=calls[name]):
            seen.append(M)
            return routine(M)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSymOperator:
    def test_times_matrix_and_vector(self, rng):
        S = _random_sym(5, rng)
        op = SymOperator(S)
        assert op.n == 5
        v = rng.standard_normal(5)
        V = rng.standard_normal((5, 2))
        assert np.allclose(op.times(v), S @ v)
        assert np.allclose(op.times(V), S @ V)

    def test_holds_no_decomposition(self, rng, monkeypatch):
        # the operator keeps its matrix alone: every call decomposes anew
        S = _random_sym(6, rng)
        op = SymOperator(S)
        calls = _counted(monkeypatch, "eigh", "eigvalsh")
        for vectors in (True, True, False, False):
            extreme_eigs(op, vectors)
        assert [len(calls["eigh"]), len(calls["eigvalsh"])] == [2, 2]
        assert list(vars(op)) == ["dense"] and op.dense is S


class TestExtremeEigs:
    def test_dense_path_matches_eigh(self, rng):
        S = _random_sym(20, rng)
        vals = np.linalg.eigvalsh(S)
        got, vecs = extreme_eigs(SymOperator(S), True)
        assert vecs.shape == (20, 20)
        assert np.all(np.diff(got) >= 0)
        assert np.allclose(got, vals, atol=1e-10)

    def test_eigenpair_residual(self, rng):
        S = _random_sym(15, rng)
        vals, vecs = extreme_eigs(SymOperator(S), True)
        for val, vec in zip(vals, vecs.T):
            assert np.linalg.norm(S @ vec - val * vec) < 1e-9

    def test_above_old_dense_threshold(self, monkeypatch):
        # n = 1034 once took an ARPACK path; one eigh serves every n
        n = 1034
        calls = _counted(monkeypatch, "eigh")
        vals, vecs = extreme_eigs(
            SymOperator(np.diag(np.arange(n, dtype=float))), True)
        assert len(calls["eigh"]) == 1
        assert np.array_equal(vals, np.arange(n, dtype=float))
        assert np.array_equal(np.abs(vecs), np.eye(n))

    def test_one_eigh_per_call(self, rng, monkeypatch):
        # each call runs exactly one eigh, returns numpy's bits, and runs
        # no eigvalsh; a second call decomposes again, to the same bits
        S = _random_sym(12, rng)
        want_vals, want_vecs = np.linalg.eigh(S)
        calls = _counted(monkeypatch, "eigh", "eigvalsh")
        op = SymOperator(S)
        for count in (1, 2):
            vals, vecs = extreme_eigs(op, True)
            assert len(calls["eigh"]) == count and not calls["eigvalsh"]
            assert calls["eigh"][-1] is S
            assert np.array_equal(vals, want_vals)
            assert np.array_equal(vecs, want_vecs)

    def test_values_alone_from_one_eigvalsh(self, rng, monkeypatch):
        # without vectors: one eigvalsh, bit for bit, and no eigh
        S = _random_sym(12, rng)
        want = np.linalg.eigvalsh(S)
        calls = _counted(monkeypatch, "eigvalsh")

        def forbidden(M):
            raise AssertionError("eigh called")
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        vals, vecs = extreme_eigs(SymOperator(S), False)
        assert len(calls["eigvalsh"]) == 1 and calls["eigvalsh"][0] is S
        assert vecs is None and np.array_equal(vals, want)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_failure_raises(self, vectors, monkeypatch):
        # a failed eigensolve reaches the caller as LinAlgError
        def failing(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh" if vectors else "eigvalsh",
                            failing)
        with pytest.raises(np.linalg.LinAlgError):
            extreme_eigs(SymOperator(np.eye(3)), vectors)


def _with_spectrum(vals, rng):
    """A symmetric matrix with eigenvalues ``vals`` (up to rounding)."""
    Q, _ = np.linalg.qr(rng.standard_normal((len(vals), len(vals))))
    S = (Q * vals) @ Q.T
    return 0.5 * (S + S.T)


class TestProvesLambdaMinAbove:
    BOUND = 1e-8

    @pytest.mark.parametrize("scale,proven", [(0.5, True), (2.0, False)])
    def test_bound_on_lambda_min(self, scale, proven, rng):
        vals = np.concatenate([[-scale * self.BOUND],
                               np.linspace(0.1, 3.0, 19)])
        op = SymOperator(_with_spectrum(vals, rng))
        assert proves_curvature_above(op, self.BOUND) is proven

    def test_psd_with_threefold_zero_eigenvalue(self, rng):
        vals = np.concatenate([np.zeros(3), np.linspace(0.5, 2.0, 17)])
        op = SymOperator(_with_spectrum(vals, rng))
        assert proves_curvature_above(op, self.BOUND)

    def test_only_the_last_pivot_negative(self):
        # [[I, v], [v^T, c]]: n - 1 unit pivots, then c - v^T v = -1
        n = 12
        S = np.eye(n)
        S[:-1, -1] = S[-1, :-1] = 0.5
        S[-1, -1] = 0.25 * (n - 1) - 1.0
        np.linalg.cholesky(S[:-1, :-1])
        assert not proves_curvature_above(SymOperator(S), self.BOUND)

    @pytest.mark.parametrize("shift", [0.0, -1.5])
    def test_bytes_of_s_unchanged(self, shift, rng):
        # a diagonal at the scale of the bound does not survive adding and
        # subtracting the shift, so S itself must never be shifted
        B = rng.standard_normal((30, 30))
        S = self.BOUND * (B @ B.T / 30 + shift * np.eye(30))
        d = np.diagonal(S)
        assert np.any((d + self.BOUND) - self.BOUND != d)
        before = S.tobytes()
        proven = proves_curvature_above(SymOperator(S), self.BOUND)
        assert proven is (shift == 0.0)
        assert S.tobytes() == before

    def test_no_factorization_when_the_margin_exceeds_the_bound(
            self, rng, monkeypatch):
        def forbidden(A):
            raise AssertionError("cholesky called")
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        op = SymOperator(np.eye(4))
        assert not proves_curvature_above(op, 1e-20)
        assert not proves_curvature_above(op, 0.0)


def _split_basis(n, r, rng):
    """An orthonormal basis of R^n as (Q, P): r columns, then the rest."""
    B, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return B[:, :r], B[:, r:]


class TestProvesOffRangeCurvatureAbove:
    BOUND = 1e-8

    def test_negative_eigenvector_off_the_range(self, rng):
        # the eigenvector of -2 bound is orthogonal to range(Q)
        Q, P = _split_basis(20, 3, rng)
        S = (P * np.linspace(-2 * self.BOUND, 3.0, 17)) @ P.T \
            + (Q * np.array([0.5, 1.0, 2.0])) @ Q.T
        S = 0.5 * (S + S.T)
        assert not proves_curvature_above(SymOperator(S), self.BOUND, Q)

    def test_negative_curvature_only_inside_the_range(self, rng):
        # S = S0 - eps Q Q^T with S0 >= 0 and range(Q) invariant under S0:
        # lambda_min(S) = -eps, far below -bound, yet S is positive
        # semidefinite off range(Q)
        Q, P = _split_basis(20, 3, rng)
        S0 = (P * np.concatenate([[0.0], np.linspace(0.1, 3.0, 16)])) @ P.T \
            + (Q * np.array([0.0, 0.5, 1.0])) @ Q.T
        S = S0 - 2.0 * Q @ Q.T
        S = 0.5 * (S + S.T)
        op = SymOperator(S)
        assert np.linalg.eigvalsh(S)[0] < -1.9
        assert not proves_curvature_above(op, self.BOUND)
        assert proves_curvature_above(op, self.BOUND, Q)

    def test_empty_basis_bounds_lambda_min(self, rng):
        # a Q of no columns is the plain proof, as is no Q at all
        vals = np.concatenate([np.zeros(3), np.linspace(0.5, 2.0, 17)])
        op = SymOperator(_with_spectrum(vals, rng))
        assert proves_curvature_above(op, self.BOUND, np.zeros((20, 0)))
        assert proves_curvature_above(op, self.BOUND)
        vals[0] = -2 * self.BOUND
        op = SymOperator(_with_spectrum(vals, rng))
        assert not proves_curvature_above(op, self.BOUND, np.zeros((20, 0)))
        assert not proves_curvature_above(op, self.BOUND)

    def test_random_oracle(self, rng):
        # S = [Q P] [[A, B], [B^T, D]] [Q P]^T: negative curvature in A,
        # a coupling B, and lambda_min(D) near -bound; every True must
        # hold for the compressed matrix P^T S P
        n, outcomes = 16, set()
        for trial in range(200):
            r = 1 + trial % 4
            Q, P = _split_basis(n, r, rng)
            A = _random_sym(r, rng)
            B = 10.0 ** rng.uniform(-10, -2) * rng.standard_normal((r, n - r))
            D = _with_spectrum(np.concatenate(
                [[-rng.uniform(0.0, 2.0) * self.BOUND],
                 rng.uniform(0.0, 2.0, n - r - 1)]), rng)
            B_full = np.concatenate([Q, P], axis=1)
            S = B_full @ np.block([[A, B], [B.T, D]]) @ B_full.T
            S = 0.5 * (S + S.T)
            proven = proves_curvature_above(SymOperator(S), self.BOUND, Q)
            outcomes.add(proven)
            if proven:
                assert np.linalg.eigvalsh(P.T @ S @ P)[0] >= -self.BOUND
        assert outcomes == {True, False}

    def test_random_oracle_at_n_1000(self, rng):
        # as above at n = 1000, with r = 0 (the plain proof) to 3 and
        # lambda_min(D) = -x bound, x < 0.9 or x > 1.1 in turn, so the
        # proof has both outcomes to find; P^T S P = D holds to rounding,
        # and the coupling is small enough not to hide D from the proof
        n, outcomes = 1000, []
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for trial in range(6):
            r = trial % 4
            Q, P = basis[:, :r], basis[:, r:]
            x = rng.uniform(0.0, 0.9) if trial % 2 else rng.uniform(1.1, 2.0)
            blocks = np.zeros((n, n))
            blocks[:r, :r] = _random_sym(r, rng)
            blocks[:r, r:] = 1e-6 * rng.standard_normal((r, n - r))
            blocks[r:, :r] = blocks[:r, r:].T
            blocks[r:, r:] = np.diag(np.concatenate(
                [[-x * self.BOUND], rng.uniform(0.0, 2.0, n - r - 1)]))
            S = basis @ blocks @ basis.T
            S = 0.5 * (S + S.T)
            proven = proves_curvature_above(SymOperator(S), self.BOUND,
                                            Q if r else None)
            outcomes.append(proven)
            if proven:
                assert np.linalg.eigvalsh(P.T @ S @ P)[0] >= -self.BOUND
        assert outcomes == [trial % 2 == 1 for trial in range(6)]

    @pytest.mark.parametrize("r", [0, 2])
    def test_componentwise_margin_proves_at_n_1000(self, r, rng):
        # a positive semidefinite W plus a flat rank-one term of weight
        # 100 n: ||S||_F is about n max_i S_ii, so the normwise margin
        # (n + 1) gamma_{n+1} ||S||_F of the previous proofs exceeds the
        # bound tol (1 + L), while the componentwise one, of order
        # n u tr(S), stays far below it. Curvature -2 on range(Q) stays
        # off the proof's path
        n = 1000
        B = rng.standard_normal((n, n - 5))
        S = B @ B.T / n + 100.0 * np.ones((n, n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
        S -= 2.0 * Q @ Q.T
        S = 0.5 * (S + S.T)
        bound = 1e-8 * (1.0 + np.max(np.diagonal(S)))
        u = np.finfo(float).eps / 2
        gamma = (n + 1) * u / (1 - (n + 1) * u)
        norm_s = np.linalg.norm(S)
        old_mu = (n + 1) * gamma * (norm_s + bound) if r == 0 else \
            (n + 4) * gamma * (norm_s + 2.0 * norm_s * r + bound)
        assert old_mu > 10 * bound
        assert proves_curvature_above(SymOperator(S), bound,
                                      Q if r else None)
        P = np.linalg.svd(Q, full_matrices=True)[0][:, r:]
        assert np.linalg.eigvalsh(P.T @ S @ P)[0] >= -bound

    @pytest.mark.parametrize("shift", [0.0, -1.5])
    def test_bytes_of_s_and_q_unchanged(self, shift, rng):
        B = rng.standard_normal((30, 30))
        S = self.BOUND * (B @ B.T / 30 + shift * np.eye(30))
        Q, _ = _split_basis(30, 2, rng)
        before = S.tobytes(), Q.tobytes()
        proves_curvature_above(SymOperator(S), self.BOUND, Q)
        assert (S.tobytes(), Q.tobytes()) == before

    @pytest.mark.parametrize("shift", [0.0, -1.5])
    @pytest.mark.parametrize("r", [0, 2])
    def test_read_only_slack(self, shift, r, rng):
        # the proof only reads S, with Q or without: a read-only S gets
        # the answer of a writable copy
        B = rng.standard_normal((30, 30))
        S = self.BOUND * (B @ B.T / 30 + shift * np.eye(30))
        Q = _split_basis(30, r, rng)[0] if r else None
        proven = proves_curvature_above(SymOperator(S.copy()), self.BOUND, Q)
        assert proven is (shift == 0.0)
        S.setflags(write=False)
        assert proves_curvature_above(SymOperator(S), self.BOUND, Q) \
            is proven

    def test_no_factorization_when_the_margin_exceeds_the_bound(
            self, rng, monkeypatch):
        def forbidden(A):
            raise AssertionError("cholesky called")
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        op = SymOperator(np.eye(4))
        Q = np.eye(4)[:, :1]
        assert not proves_curvature_above(op, 1e-20, Q)
        assert not proves_curvature_above(op, 0.0, Q)


class TestThinSvd:
    def test_reconstruction(self, rng):
        Y = rng.standard_normal((8, 3))
        W, s, V = thin_svd(Y)
        assert np.allclose(W @ np.diag(s) @ V.T, Y, atol=1e-12)
        assert np.all(np.diff(s) <= 0)
        assert np.allclose(W.T @ W, np.eye(3), atol=1e-12)

    def test_rank_deficient(self, rng):
        col = rng.standard_normal((6, 1))
        Y = np.concatenate([col, 2 * col, np.zeros((6, 1))], axis=1)
        _, s, _ = thin_svd(Y)
        assert s[0] > 0 and np.allclose(s[1:], 0, atol=1e-12)
