import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossmodal import linalg
from oracle_utils import numerical_rank, svt, trace_norm


def random_matrix(rng, rows=4, cols=5, scale=3.0):
    return scale * rng.standard_normal((rows, cols))


matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestSvd:
    def test_identity(self):
        res = linalg.svd(np.eye(3))
        np.testing.assert_allclose(res.sigma, [1, 1, 1])

    def test_diag_mixed_signs(self):
        res = linalg.svd(np.diag([3.0, -4.0]))
        np.testing.assert_allclose(res.sigma, [4.0, 3.0])

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        res = linalg.svd(np.outer(u, v))
        np.testing.assert_allclose(res.sigma[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(res.sigma[1:], 0.0, atol=1e-12)

    @given(matrices)
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, M):
        res = linalg.svd(M)
        k = min(M.shape)
        assert res.sigma.shape == (k,)
        assert np.all(res.sigma >= 0)
        assert np.all(np.diff(res.sigma) <= 0)
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(k), atol=1e-8)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(k), atol=1e-8)
        recon = (res.U * res.sigma) @ res.V.T
        scale = max(1.0, np.linalg.norm(M))
        assert np.linalg.norm(recon - M) / scale < 1e-6

    def test_nonfinite_rejected(self):
        with pytest.raises(linalg.NumericalError):
            linalg.svd(np.array([[1.0, np.nan]]))


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 4))) == 0.0

    def test_identity(self):
        assert trace_norm(np.eye(5)) == pytest.approx(5.0)

    def test_diag(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            A = random_matrix(rng)
            B = random_matrix(rng)
            assert trace_norm(A + B) <= (
                trace_norm(A) + trace_norm(B) + 1e-9
            )


class TestSvt:
    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(2)
        M = random_matrix(rng)
        np.testing.assert_allclose(svt(M, 0.0), M, atol=1e-10)

    def test_diagonal_shrinkage(self):
        out = svt(np.diag([3.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_full_shrinkage_gives_zero(self):
        rng = np.random.default_rng(3)
        M = random_matrix(rng, scale=0.1)
        big = linalg.svd(M).sigma[0] + 1.0
        np.testing.assert_allclose(svt(M, big), 0.0, atol=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.5)

    def test_prox_optimality_oracle(self):
        # svt must beat random candidates on 1/2||X-M||_F^2 + t||X||_tr.
        rng = np.random.default_rng(4)
        for _ in range(10):
            M = random_matrix(rng)
            t = float(rng.uniform(0.01, 5.0))
            X_star = svt(M, t)
            best = 0.5 * np.linalg.norm(X_star - M) ** 2 + t * trace_norm(X_star)
            for _ in range(100):
                X = X_star + rng.standard_normal(M.shape) * rng.uniform(0.01, 2.0)
                val = 0.5 * np.linalg.norm(X - M) ** 2 + t * trace_norm(X)
                assert best <= val + 1e-9

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            A = random_matrix(rng)
            B = random_matrix(rng)
            t = float(rng.uniform(0, 3))
            lhs = np.linalg.norm(svt(A, t) - svt(B, t))
            assert lhs <= np.linalg.norm(A - B) + 1e-9

    def test_rank_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        M = random_matrix(rng, 5, 5)
        ranks = [
            numerical_rank(svt(M, t))
            for t in np.linspace(0, linalg.svd(M).sigma[0] * 1.1, 12)
        ]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_low_rank(self):
        rng = np.random.default_rng(7)
        M = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        assert numerical_rank(M) == 1
