"""Eigensolver and SVD utilities against numpy dense references."""

import numpy as np
import pytest

from lrsdp.spectral import (SymOperator, extreme_eigs,
                            proves_lambda_min_above, thin_svd)


def _random_sym(n, rng):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


class TestSymOperator:
    def test_times_matrix_and_vector(self, rng):
        S = _random_sym(5, rng)
        op = SymOperator(S)
        assert op.n == 5
        v = rng.standard_normal(5)
        V = rng.standard_normal((5, 2))
        assert np.allclose(op.times(v), S @ v)
        assert np.allclose(op.times(V), S @ V)


class TestExtremeEigs:
    def test_dense_path_matches_eigh(self, rng):
        S = _random_sym(20, rng)
        vals = np.linalg.eigvalsh(S)
        lo = extreme_eigs(SymOperator(S), 3, side="smallest")
        hi = extreme_eigs(SymOperator(S), 2, side="largest")
        assert np.allclose([v for v, _ in lo], vals[:3], atol=1e-10)
        assert np.allclose([v for v, _ in hi], vals[::-1][:2], atol=1e-10)

    def test_eigenpair_residual(self, rng):
        S = _random_sym(15, rng)
        op = SymOperator(S)
        for val, vec in extreme_eigs(op, 2, side="smallest"):
            assert np.linalg.norm(S @ vec - val * vec) < 1e-9

    def test_above_old_dense_threshold(self, monkeypatch):
        # n = 1034 once took an ARPACK path; one cached eigh serves all sizes
        n = 1034
        calls = []
        eigh = np.linalg.eigh

        def counted(M):
            calls.append(M)
            return eigh(M)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        op = SymOperator(np.diag(np.arange(n, dtype=float)))
        lo = extreme_eigs(op, 1, side="smallest")
        hi = extreme_eigs(op, 1, side="largest")
        esc = extreme_eigs(op, 4, side="smallest")
        assert len(calls) == 1
        assert lo[0][0] == 0.0 and hi[0][0] == n - 1
        assert [v for v, _ in esc] == [0.0, 1.0, 2.0, 3.0]
        for j, (_, vec) in enumerate(esc):
            assert np.array_equal(np.abs(vec), np.eye(n)[j])
        assert np.array_equal(np.abs(hi[0][1]), np.eye(n)[n - 1])

    def test_one_eigh_per_operator(self, rng, monkeypatch):
        S = _random_sym(12, rng)
        calls = []
        eigh = np.linalg.eigh

        def counted(M):
            calls.append(M)
            return eigh(M)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        op = SymOperator(S)
        lo = extreme_eigs(op, 1, side="smallest")
        hi = extreme_eigs(op, 1, side="largest")
        esc = extreme_eigs(op, 4, side="smallest")
        assert len(calls) == 1
        vals = np.linalg.eigvalsh(S)
        assert lo[0][0] == pytest.approx(vals[0], abs=1e-10)
        assert hi[0][0] == pytest.approx(vals[-1], abs=1e-10)
        assert np.allclose([v for v, _ in esc], vals[:4], atol=1e-10)

    def test_bad_arguments(self, rng):
        op = SymOperator(np.eye(3))
        with pytest.raises(ValueError):
            extreme_eigs(op, 0)
        with pytest.raises(ValueError):
            extreme_eigs(op, 4)
        with pytest.raises(ValueError):
            extreme_eigs(op, 1, side="middle")

    def test_deterministic(self, rng):
        S = _random_sym(12, rng)
        op = SymOperator(S)
        a = extreme_eigs(op, 2)
        b = extreme_eigs(op, 2)
        for (va, xa), (vb, xb) in zip(a, b):
            assert va == vb and np.array_equal(xa, xb)


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
        assert proves_lambda_min_above(op, self.BOUND) is proven

    def test_psd_with_threefold_zero_eigenvalue(self, rng):
        vals = np.concatenate([np.zeros(3), np.linspace(0.5, 2.0, 17)])
        op = SymOperator(_with_spectrum(vals, rng))
        assert proves_lambda_min_above(op, self.BOUND)

    def test_only_the_last_pivot_negative(self):
        # [[I, v], [v^T, c]]: n - 1 unit pivots, then c - v^T v = -1
        n = 12
        S = np.eye(n)
        S[:-1, -1] = S[-1, :-1] = 0.5
        S[-1, -1] = 0.25 * (n - 1) - 1.0
        np.linalg.cholesky(S[:-1, :-1])
        assert not proves_lambda_min_above(SymOperator(S), self.BOUND)

    @pytest.mark.parametrize("shift", [0.0, -1.5])
    def test_bytes_of_s_unchanged(self, shift, rng):
        # a diagonal at the scale of the bound does not survive adding and
        # subtracting the shift, so the entries must come from a saved copy
        B = rng.standard_normal((30, 30))
        S = self.BOUND * (B @ B.T / 30 + shift * np.eye(30))
        d = np.diagonal(S)
        assert np.any((d + self.BOUND) - self.BOUND != d)
        before = S.tobytes()
        proven = proves_lambda_min_above(SymOperator(S), self.BOUND)
        assert proven is (shift == 0.0)
        assert S.tobytes() == before

    def test_no_factorization_when_the_margin_exceeds_the_bound(
            self, rng, monkeypatch):
        def forbidden(A):
            raise AssertionError("cholesky called")
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        op = SymOperator(np.eye(4))
        assert not proves_lambda_min_above(op, 1e-20)
        assert not proves_lambda_min_above(op, 0.0)


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
