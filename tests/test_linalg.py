import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rsvdangles import linalg
from rsvdangles.linalg import (RankDeficient, Spectrum, SvdFactors, as_matrix,
                               normal_row_blocks, ortho, seeded_rng, sv_x_pinv, svd_full)


def test_as_matrix_rejects_nonfinite_and_empty():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.array([[np.inf], [0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros(4))


# heights 1 (a row wider than the buffer), 7, 16, 64 and the whole matrix
@pytest.mark.parametrize("buffer", [5, 70, 160, 640, 16_384])
@pytest.mark.parametrize("seed", [1, 7, 123456789, 2**63 + 5])
def test_normal_row_blocks_draw_the_whole_matrix_and_stream(monkeypatch, buffer, seed):
    monkeypatch.setattr(linalg, "_DRAW_BUFFER", buffer)
    want = seeded_rng(seed)
    whole, after = want.standard_normal((66, 10)), want.standard_normal(5)
    rng, got = seeded_rng(seed), np.full((66, 10), np.nan)
    for i, rows in normal_row_blocks(rng, 66, 10):
        got[i:i + len(rows)] = rows
    assert np.array_equal(got, whole)
    assert np.array_equal(rng.standard_normal(5), after)


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
        with pytest.raises(RankDeficient, match="^rank deficient sketch$"):
            ortho(m)

    def test_norm_past_the_overflow_threshold_is_not_a_collapse(self):
        # ||m||_F^2 overflows from about 1.3e154 on; the rank test must not
        m = seeded_rng(4).standard_normal((20, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = ortho(m * 1e160)
        assert np.linalg.norm(q.T @ q - np.eye(4), 2) <= 1e-10
        assert np.linalg.norm(q @ (q.T @ m) - m) <= 1e-10 * np.linalg.norm(m)

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
        assert (np.linalg.norm((f.u * f.sigma) @ f.v.T - a)
                <= 1e-10 * max(1.0, np.linalg.norm(a)))
        assert np.linalg.norm(f.u.T @ f.u - np.eye(p), 2) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(p), 2) <= 1e-10
        assert (np.diff(f.sigma) <= 0).all() and (f.sigma >= 0).all()

    def test_planted_spectrum_recovered(self):
        from rsvdangles.matgen import gen_gaussian_decay
        spec = Spectrum.from_values(np.linspace(5.0, 0.1, 30))
        a, _ = gen_gaussian_decay(60, 45, spec, seed=8)
        f = svd_full(a)
        assert np.allclose(f.sigma[:30], spec.values, rtol=1e-8)


class TestSvXPinv:
    @staticmethod
    def dense_reference(x, y):
        """The rank check by a values-only SVD of R alone: sv_x_pinv's
        fallback path, run on y itself."""
        r = np.linalg.qr(y, mode="r")
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise ValueError("rank deficient y")
        return np.linalg.svd(np.linalg.solve(r.T, x.T), compute_uv=False)

    @staticmethod
    def conditioned_y(seed, m, n, cond, scale):
        rng = seeded_rng(seed)
        u = np.linalg.qr(rng.standard_normal((m, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return rng, (u * np.geomspace(scale, scale / cond, n)) @ v.T

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("shape", [(40, 10, 3), (60, 20, 20), (30, 30, 5), (80, 15, 25)])
    def test_matches_explicit_pseudo_inverse(self, cond, shape):
        m, n, p = shape
        rng, y = self.conditioned_y(int(np.log10(cond)) * 100 + m, m, n, cond, 1.0)
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
        with pytest.raises(RankDeficient, match="^rank deficient y$"):
            sv_x_pinv(rng.standard_normal((3, 5)), y)
        with pytest.raises(RankDeficient, match="^rank deficient y$"):
            sv_x_pinv(np.ones((3, 5)), np.zeros((20, 5)))
        # the rank verdict comes before x is checked
        with pytest.raises(RankDeficient, match="^rank deficient y$"):
            sv_x_pinv(np.full((3, 5), np.inf), y)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           extra_rows=st.integers(0, 20), p=st.integers(1, 8),
           log_cond=st.one_of(st.floats(0.0, 16.0), st.floats(11.0, 13.0)),
           log_scale=st.one_of(st.floats(-200.0, 200.0), st.floats(150.0, 200.0),
                               st.floats(-200.0, -150.0)))
    # y's entries near 1e170 and 1e-170: the scaling to max|y| near 1 must
    # keep the Gram of y~ finite and out of the underflow range
    @example(seed=1, n=12, extra_rows=3, p=2, log_cond=13.0, log_scale=170.0)
    @example(seed=2, n=12, extra_rows=3, p=2, log_cond=1.0, log_scale=-170.0)
    def test_agrees_with_dense_rank_check(self, seed, n, extra_rows, p,
                                          log_cond, log_scale):
        rng, y = self.conditioned_y(seed, n + extra_rows, n, 10.0**log_cond,
                                    10.0**log_scale)
        x = rng.standard_normal((p, n))
        try:
            expect = self.dense_reference(x, y)
        except ValueError:
            with pytest.raises(RankDeficient, match="^rank deficient y$"):
                sv_x_pinv(x, y)
        else:
            with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
                got = sv_x_pinv(x, y)
            if qr.called:
                assert got.tobytes() == expect.tobytes()
            else:
                # the Gram path: within its certified sqrt(eps)/2 = 7.45e-9
                # relative on every value, the smallest included; x is a
                # Gaussian draw, so the rounding of the solve and the SVD,
                # which both paths share, stays far below the room to 7.5e-9
                assert np.all(np.abs(got - expect) <= 7.5e-9 * expect)

    @pytest.mark.parametrize("margin, qr_calls", [(1.05, 0), (0.95, 1)])
    def test_fast_shift_is_half_the_digits(self, margin, qr_calls):
        # a 60x20 y whose lambda_min(G) / T lies 5% inside or outside the
        # fast shift tau / T = (n + l + 4) sqrt(eps) / 2: nineteen singular
        # values 1 and one s with s^2 / (19 + s^2) = margin * tau / T
        n, l = 60, 20
        shift = margin * (n + l + 4) * math.sqrt(np.finfo(float).eps) / 2
        rng = seeded_rng(4)
        u = np.linalg.qr(rng.standard_normal((n, l)))[0]
        v = np.linalg.qr(rng.standard_normal((l, l)))[0]
        sigma = np.ones(l)
        sigma[-1] = math.sqrt(19 * shift / (1 - shift))
        y = (u * sigma) @ v.T
        x = rng.standard_normal((5, l))
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            got = sv_x_pinv(x, y)
        assert qr.call_count == qr_calls
        expect = self.dense_reference(x, y)
        assert np.all(np.abs(got - expect) <= 7.5e-9 * expect)

    # a fast-path y runs the closing values-only SVD alone; every fallback
    # adds the rank test's SVD of its triangle
    @pytest.mark.parametrize("cond, svd_calls", [(1.0, 1), (1e3, 2), (1e10, 2)])
    def test_dense_check_runs_only_as_fallback(self, monkeypatch, cond, svd_calls):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        rng, y = self.conditioned_y(11, 60, 20, cond, 1.0)
        x = rng.standard_normal((5, 20))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        sv_x_pinv(x, y)
        assert len(calls) == svd_calls

    @pytest.mark.parametrize("y_kind, qr_calls", [("gaussian", 0), ("cond_1e3", 1)])
    def test_householder_qr_runs_only_as_fallback(self, monkeypatch, y_kind, qr_calls):
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        if y_kind == "gaussian":
            # the shape of the weighted tail in the estimate benchmark
            rng = seeded_rng(5)
            y = rng.standard_normal((500, 100))
        else:
            rng, y = self.conditioned_y(11, 60, 20, 1e3, 1.0)
        x = rng.standard_normal((5, y.shape[1]))
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        sv_x_pinv(x, y)
        assert len(calls) == qr_calls

    @pytest.mark.parametrize("cond, qr_calls", [(1.0, 0), (1e10, 1)])
    def test_lent_workspace_gives_the_same_bytes(self, cond, qr_calls):
        # the Cholesky path and the Householder fallback; the workspace is
        # the leading rows of a larger stale buffer, as the estimator lends it
        rng, y = self.conditioned_y(12, 60, 20, cond, 1e3)
        x = rng.standard_normal((5, 20))
        x0, y0 = x.copy(), y.copy()
        want = sv_x_pinv(x, y)
        work = np.full((70, 20), np.nan)
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            got = sv_x_pinv(x, y, work=work[:60])
        assert qr.call_count == qr_calls
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes()
        # it took the scaled y and nothing past it
        assert not np.isnan(work[:60]).any() and np.isnan(work[60:]).all()

    def test_householder_r_is_right_near_overflow(self):
        # the fast shift declines cond 1e8; at 1e308, a QR of y itself
        # returns a finite but wrong triangle for some of these draws
        for seed in range(8):
            rng, y = self.conditioned_y(seed, 6, 3, 1e8, 1e308)
            x = rng.standard_normal((2, 3))
            e = math.frexp(float(np.abs(y).max()))[1]
            r = np.linalg.qr(np.ldexp(y, -e), mode="r")
            want = np.ldexp(np.linalg.svd(np.linalg.solve(r.T, x.T),
                                          compute_uv=False), -e)
            assert np.all(np.abs(sv_x_pinv(x, y) - want) <= 1e-13 * want)

    def test_overflowing_solve_is_named(self):
        rng = seeded_rng(1)
        x = 1e200 * rng.standard_normal((3, 5))
        y = 1e-200 * rng.standard_normal((30, 5))
        with pytest.raises(ValueError, match=r"x @ pinv\(y\) overflows"):
            sv_x_pinv(x, y)

    def test_overflowing_column_norms_raise(self):
        # finite entries, but the column norms of y exceed the float range
        y = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308],
                      [1.7e308, 1.7e308], [-1.7e308, -1.7e308]])
        with pytest.raises(ValueError, match="overflow"):
            sv_x_pinv(np.ones((3, 2)), y)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="at least as many rows"):
            sv_x_pinv(np.ones((2, 5)), np.ones((3, 5)))
        with pytest.raises(ValueError, match="column counts"):
            sv_x_pinv(np.ones((2, 4)), np.eye(5))


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
