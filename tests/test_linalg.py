import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsvdangles.linalg import (Spectrum, SvdFactors, as_matrix, ortho,
                               seeded_rng, spectral_norm_power, sv_x_pinv,
                               svd_full)


def test_as_matrix_rejects_nonfinite_and_empty():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.array([[np.inf], [0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros(4))


class TestOrtho:
    def test_identity_fixed_point(self):
        q = ortho(np.eye(3))
        assert np.allclose(np.abs(q), np.eye(3), atol=1e-14)

    def test_axis_aligned_columns(self):
        m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        q = ortho(m)
        expect = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(np.abs(q), expect, atol=1e-14)

    def test_random_tall_matrix_residuals(self):
        rng = seeded_rng(7)
        m = rng.standard_normal((50, 10))
        q = ortho(m)
        assert np.linalg.norm(q.T @ q - np.eye(10), 2) <= 1e-10
        # range is preserved: projecting m onto span(q) reproduces m
        assert np.linalg.norm(q @ (q.T @ m) - m) <= 1e-10 * np.linalg.norm(m)

    def test_rank_deficient_raises(self):
        rng = seeded_rng(1)
        base = rng.standard_normal((20, 3))
        m = np.hstack([base, base[:, :1]])
        with pytest.raises(ValueError, match="rank deficient sketch"):
            ortho(m)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="cols <= rows"):
            ortho(np.ones((2, 5)))


class TestSvdFull:
    def test_diagonal(self):
        f = svd_full(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.sigma, [3.0, 2.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        f = svd_full(np.zeros((4, 3)))
        assert f.sigma.shape == (3,)
        assert np.all(f.sigma == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reconstruction_orthonormality_ordering(self, seed):
        rng = seeded_rng(seed)
        m = rng.integers(2, 60)
        n = rng.integers(2, 60)
        a = rng.standard_normal((m, n)) * rng.uniform(1e-3, 1e3)
        f = svd_full(a)
        p = min(m, n)
        assert f.sigma.size == p
        assert np.linalg.norm(f.reconstruct() - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(f.u.T @ f.u - np.eye(p), 2) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(p), 2) <= 1e-10
        assert (np.diff(f.sigma) <= 0).all() and (f.sigma >= 0).all()

    def test_planted_spectrum_recovered(self):
        from rsvdangles.matgen import gen_gaussian_decay
        spec = Spectrum.from_values(np.linspace(5.0, 0.1, 30))
        pm = gen_gaussian_decay(60, 45, spec, seed=8)
        f = svd_full(pm.a)
        assert np.allclose(f.sigma[:30], spec.values, rtol=1e-8)


class TestSvXPinv:
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("shape", [(40, 10, 3), (60, 20, 20), (30, 30, 5), (80, 15, 25)])
    def test_matches_explicit_pseudo_inverse(self, cond, shape):
        m, n, p = shape
        rng = seeded_rng(int(np.log10(cond)) * 100 + m)
        u = np.linalg.qr(rng.standard_normal((m, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        y = (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T
        x = rng.standard_normal((p, n))
        expect = np.linalg.svd(x @ np.linalg.pinv(y), compute_uv=False)
        got = sv_x_pinv(x, y)
        # rank(x @ pinv(y)) <= n: the kernel omits the zeros of a wider product
        assert got.shape == (min(p, n),)
        # singular values are perturbed in absolute terms, relative to the largest
        assert np.max(np.abs(got - expect[:got.size])) <= 1e-8 * expect[0]
        assert np.all(expect[got.size:] <= 1e-8 * expect[0])

    def test_rank_deficient_y_raises(self):
        rng = seeded_rng(3)
        base = rng.standard_normal((20, 4))
        y = np.hstack([base, base[:, :1] + base[:, 1:2]])
        with pytest.raises(ValueError, match="rank deficient"):
            sv_x_pinv(rng.standard_normal((3, 5)), y)
        with pytest.raises(ValueError, match="rank deficient"):
            sv_x_pinv(np.ones((3, 5)), np.zeros((20, 5)))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="at least as many rows"):
            sv_x_pinv(np.ones((2, 5)), np.ones((3, 5)))
        with pytest.raises(ValueError, match="column counts"):
            sv_x_pinv(np.ones((2, 4)), np.eye(5))


class TestSpectralNormPower:
    def test_known_top_value(self):
        est = spectral_norm_power(np.diag([5.0, 1.0, 1.0]), iters=50, seed=0)
        assert abs(est - 5.0) <= 1e-6

    def test_zero_matrix(self):
        assert spectral_norm_power(np.zeros((4, 4)), iters=5, seed=0) == 0.0

    def test_rank_one_exact_after_single_iteration(self):
        rng = seeded_rng(3)
        u = rng.standard_normal(12)
        v = rng.standard_normal(9)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        est = spectral_norm_power(np.outer(u, v), iters=1, seed=4)
        assert abs(est - 1.0) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_never_exceeds_top_and_monotone_in_iters(self, seed):
        rng = seeded_rng(seed)
        a = rng.standard_normal((rng.integers(3, 25), rng.integers(3, 25)))
        top = np.linalg.svd(a, compute_uv=False)[0]
        estimates = [spectral_norm_power(a, iters=i, seed=99) for i in (1, 3, 8, 20)]
        assert all(e <= top + 1e-12 for e in estimates)
        assert all(b >= a_ - 1e-12 for a_, b in zip(estimates, estimates[1:]))


class TestMatrixInequalities:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_projection_never_raises_singular_values(self, seed):
        rng = seeded_rng(seed)
        m, n = rng.integers(5, 40), rng.integers(5, 40)
        k = rng.integers(1, min(m, n))
        a = rng.standard_normal((m, n))
        q = ortho(rng.standard_normal((n, k)))
        s_aq = np.linalg.svd(a @ q, compute_uv=False)
        s_a = np.linalg.svd(a, compute_uv=False)
        assert (s_aq <= s_a[:k] + 1e-10).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_product_bounded_by_top_factor(self, seed):
        rng = seeded_rng(seed)
        m, p, n = rng.integers(3, 25), rng.integers(3, 25), rng.integers(3, 25)
        a = rng.standard_normal((m, p))
        b = rng.standard_normal((p, n))
        s_ab = np.linalg.svd(a @ b, compute_uv=False)
        s_a = np.linalg.svd(a, compute_uv=False)
        top_b = np.linalg.svd(b, compute_uv=False)[0]
        r = min(s_ab.size, s_a.size)
        assert (s_ab[:r] <= s_a[:r] * top_b + 1e-10).all()
        # anything past rank(a) is numerically zero in the product
        assert (s_ab[r:] <= s_a[-1] * top_b + 1e-10).all()


class TestSpectrum:
    def test_declared_rank_separates_zeros(self):
        s = Spectrum(np.array([3.0, 1.0, 0.0, 0.0]), 2)
        assert np.array_equal(s.tail(1), [1.0])
        with pytest.raises(ValueError):
            Spectrum(np.array([3.0, 1.0, 0.0]), 3)
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]), 2)

    def test_from_values_counts_nonzeros(self):
        s = Spectrum.from_values([2.0, 1.0, 0.0])
        assert s.declared_rank == 2

    def test_factors_validation(self):
        with pytest.raises(ValueError):
            SvdFactors(np.eye(3), np.array([1.0, 2.0]), np.eye(3)[:, :2])
