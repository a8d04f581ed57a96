import math
import warnings

import numpy as np
import pytest

from rsvdangles import linalg
from rsvdangles.angles import canonical_sines
from rsvdangles.linalg import RankDeficient, Spectrum, ortho, seeded_rng, svd_full
from rsvdangles.matgen import gen_gaussian_decay, spectrum_slower
from rsvdangles.prior_bounds import SketchCollapsed
from rsvdangles.rsvd import gaussian_sketch, rsvd


class TestGaussianSketch:
    def test_deterministic_for_fixed_seed(self):
        a = gaussian_sketch(100, 7, seed=42)
        b = gaussian_sketch(100, 7, seed=42)
        assert np.array_equal(a, b)
        c = gaussian_sketch(100, 7, seed=43)
        assert not np.array_equal(a, c)

    def test_one_whole_draw_over_sqrt_l_in_any_array(self, monkeypatch):
        # a column block of a wider array is drawn two rows at a time; a new
        # or lent C-contiguous array takes the whole draw at once
        monkeypatch.setattr(linalg, "_DRAW_BUFFER", 14)
        want = seeded_rng(42).standard_normal((100, 7)) / math.sqrt(7)
        assert gaussian_sketch(100, 7, seed=42).tobytes() == want.tobytes()
        wide = np.zeros((100, 10))
        gaussian_sketch(100, 7, 42, out=wide[:, 3:])
        assert wide[:, 3:].tobytes() == want.tobytes() and not wide[:, :3].any()
        lent = np.full((100, 7), np.nan)
        assert gaussian_sketch(100, 7, 42, out=lent) is lent
        assert lent.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r, n, l", [(1, 2, 1), (9, 30, 7), (40, 41, 40)])
    def test_leading_rows_are_the_smaller_draw(self, r, n, l):
        # the estimator draws once at the largest rank and slices it
        assert gaussian_sketch(r, l, 17).tobytes() == gaussian_sketch(n, l, 17)[:r].tobytes()

    def test_moment_concentration(self):
        n, l = 2000, 50
        om = gaussian_sketch(n, l, seed=0)
        assert abs(om.mean()) <= 0.01
        assert abs(om.var() - 1.0 / l) <= 0.1 / l
        col_sq = (om**2).sum(axis=0)
        assert np.all(np.abs(col_sq - n / l) <= 0.25 * n / l)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gaussian_sketch(5, 6, seed=0)
        with pytest.raises(ValueError, match=r"^out must have shape \(5, 2\), got \(6, 2\)$"):
            gaussian_sketch(5, 2, seed=0, out=np.empty((6, 2)))


class TestRsvd:
    def test_argument_validation(self):
        a = np.ones((3, 10))
        for l, q in ((0, 0), (2, -1)):
            with pytest.raises(ValueError, match=r"^need l >= 1 and q >= 0$"):
                rsvd(a, l, q, 0)
        with pytest.raises(ValueError, match=r"^sample size l=4 exceeds min\(m, n\)=3$"):
            rsvd(a, 4, 0, 0)

    def test_full_width_sketch_reproduces_matrix(self):
        a = np.diag([3.0, 2.0, 1.0, 0.5])
        out = rsvd(a, 4, 0, 1)
        assert np.linalg.norm((out.u * out.sigma) @ out.v.T - a) <= 1e-10

    def test_deterministic_rerun(self):
        rng = seeded_rng(2)
        a = rng.standard_normal((30, 20))
        o1 = rsvd(a, 6, 0, 9)
        o2 = rsvd(a, 6, 0, 9)
        assert np.array_equal(o1.u, o2.u)
        assert np.array_equal(o1.sigma, o2.sigma)
        assert np.array_equal(o1.v, o2.v)
        # the output carries the sketch it was drawn with
        assert np.array_equal(o1.sketch, gaussian_sketch(20, 6, seed=9))

    def test_planted_decay_leading_values_match(self):
        spec = Spectrum.from_values(0.9 ** np.arange(1, 201))
        a, _ = gen_gaussian_decay(200, 200, spec, seed=6)
        out = rsvd(a, 40, 2, 0)
        exact = svd_full(a).sigma[:10]
        assert np.allclose(out.sigma[:10], exact, rtol=1e-6)

    def test_interlacing_never_exceeds_true_values(self):
        spec = spectrum_slower(80, 8)
        a, _ = gen_gaussian_decay(80, 80, spec, seed=4)
        out = rsvd(a, 30, 1, 3)
        assert (out.sigma <= spec.values[:30] + 1e-8).all()

    def test_output_factor_invariants(self):
        rng = seeded_rng(12)
        a = rng.standard_normal((40, 25))
        out = rsvd(a, 10, 1, 0)
        assert np.linalg.norm(out.u.T @ out.u - np.eye(10), 2) <= 1e-10
        assert np.linalg.norm(out.v.T @ out.v - np.eye(10), 2) <= 1e-10
        # the left factor lives inside the column space of a
        proj = ortho(a)
        assert np.linalg.norm(out.u - proj @ (proj.T @ out.u)) <= 1e-8

    def test_rank_deficient_sketch_propagates(self):
        rng = seeded_rng(0)
        a = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))
        with pytest.raises(SketchCollapsed, match="rank deficient sketch"):
            rsvd(a, 6, 0, 0)

    def test_overflowing_sketch_is_not_a_collapse(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite") as info:
            rsvd(np.full((6, 6), 1e308), 2, 0, 0)
        assert not isinstance(info.value, (SketchCollapsed, RankDeficient))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rsvd(np.zeros((5, 5)), 2, 0, 0)

    def test_huge_entries_run_without_warnings(self):
        # ||a||_F^2 overflows: the zero test must not square the entries
        a = np.diag([3.0, 2.0, 1.0, 0.5]) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rsvd(a, 4, 1, 1)
        assert np.allclose(out.sigma, [3e160, 2e160, 1e160, 0.5e160], rtol=1e-12)

    def test_mean_largest_angle_improves_with_power_iterations(self):
        spec = spectrum_slower(120, 10)
        a, planted = gen_gaussian_decay(120, 120, spec, seed=5)
        means = []
        for q in (0, 1, 2):
            worst = [canonical_sines(rsvd(a, 16, q, seed).u, planted.u[:, :8])[-1]
                     for seed in range(20)]
            means.append(np.mean(worst))
        assert means[0] >= means[1] >= means[2]
