import numpy as np
import pytest

from rsvdangles import posterior_bounds
from rsvdangles.angles import canonical_sines
from rsvdangles.harness import PRESETS, build_matrix
from rsvdangles.linalg import Spectrum, SvdFactors, ortho, seeded_rng, svd_full
from rsvdangles.matgen import gen_gaussian_decay, spectrum_faster
from rsvdangles.posterior_bounds import (ResidualStats, gap_bounds,
                                         residual_blocks,
                                         residual_ratio_bounds,
                                         residual_spectrum)
from rsvdangles.prior_bounds import GapViolated
from rsvdangles.rsvd import SketchConfig, rsvd


def exact_rank_l_output(a, l):
    """Rank-l truncation of the exact SVD packaged as an algorithm output."""
    f = svd_full(a)
    return SvdFactors(f.u[:, :l], f.sigma[:l], f.v[:, :l])


class TestResidualSpectrum:
    def test_full_span_basis_kills_residual(self):
        rng = seeded_rng(0)
        a = rng.standard_normal((20, 6)) @ rng.standard_normal((6, 15))
        basis = ortho(a[:, :6] @ rng.standard_normal((6, 6)))
        res = residual_spectrum(a, basis, "left", 3)
        assert res.values[0] <= 1e-12 * np.linalg.norm(a)

    def test_exact_leading_basis_exposes_tail(self):
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.5, 0.25])
        pm = gen_gaussian_decay(30, 25, spec, seed=1)
        res = residual_spectrum(pm.a, pm.factors.u[:, :3], "left", 3)
        assert np.allclose(res.values[:2], [0.5, 0.25], atol=1e-10)
        assert res.values[2] <= 1e-10

    def test_orthogonal_basis_leaves_spectrum_unchanged(self):
        spec = Spectrum.from_values([2.0, 1.5, 1.0])
        pm = gen_gaussian_decay(12, 10, spec, seed=2)
        # a unit vector orthogonal to the column space of a
        v = np.linalg.qr(pm.factors.u, mode="complete")[0][:, 3:4]
        res = residual_spectrum(pm.a, v, "left", 3)
        assert np.allclose(res.values, spec.values, atol=1e-10)

    def test_right_side_uses_row_space(self):
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.5])
        pm = gen_gaussian_decay(18, 16, spec, seed=3)
        res = residual_spectrum(pm.a, pm.factors.v[:, :2], "right", 2)
        assert np.allclose(res.values, [1.0, 0.5], atol=1e-10)


class TestCertifiedValues:
    """``residual_spectrum`` and ``residual_blocks`` bound the dense singular
    values from above, by a margin far below any tolerance a bound is read at."""

    @pytest.fixture(scope="class", params=[d["name"] for d in PRESETS])
    def preset(self, request):
        return build_matrix(next(d for d in PRESETS if d["name"] == request.param)).a

    def test_at_or_above_dense_svd_on_presets(self, preset):
        a, k = preset, 50
        for l in (80, 200):
            for q in (0, 1):
                for seed in range(3):
                    out = rsvd(a, SketchConfig(k, l, q, seed))
                    for side, basis in (("left", out.u), ("right", out.v)):
                        resid = (a - basis @ (basis.T @ a) if side == "left"
                                 else a - (a @ basis) @ basis.T)
                        dense = np.linalg.svd(resid, compute_uv=False)[:k]
                        got = residual_spectrum(a, basis, side, k).values
                        assert got.size == k
                        assert (got >= dense).all(), (l, q, seed, side)
                        assert got == pytest.approx(dense, rel=1e-9)
                    err_v = a @ out.v - out.u * out.sigma
                    stats = residual_blocks(a, out, k)
                    assert np.array_equal(stats.right_residual.values, got)
                    for got, block in ((stats.resid_in_basis_2, err_v),
                                       (stats.resid_beyond_k_2, err_v[:, k:])):
                        dense = np.linalg.svd(block, compute_uv=False)[0]
                        assert dense <= got <= dense * (1 + 1e-9), (l, q, seed)

    @staticmethod
    def dense_calls(monkeypatch):
        calls = []
        dense = posterior_bounds._svdvals
        monkeypatch.setattr(posterior_bounds, "_svdvals",
                            lambda x: calls.append(x.shape) or dense(x))
        return calls

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_round_off_values_take_dense_fallback(self, monkeypatch, side):
        # the basis spans the range but for two directions: residual values
        # 3 and 4 are round-off, far below the Gram route's margin
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.5, 0.25])
        pm = gen_gaussian_decay(30, 25, spec, seed=13)
        basis = (pm.factors.u if side == "left" else pm.factors.v)[:, :3]
        calls = self.dense_calls(monkeypatch)
        got = residual_spectrum(pm.a, basis, side, 4).values
        assert calls == [(30, 25)]
        assert np.allclose(got[:2], [0.5, 0.25], atol=1e-10)
        assert (got[2:] <= 1e-14).all()

    def test_zero_residual_takes_dense_fallback(self, monkeypatch):
        a = np.diag([4.0, 2.0, 1.0])
        calls = self.dense_calls(monkeypatch)
        got = residual_spectrum(a, np.eye(3, 3), "left", 2).values
        assert calls == [(3, 3)]
        assert np.array_equal(got, [0.0, 0.0])

    def test_fast_decaying_residual_takes_dense_fallback(self, monkeypatch):
        spec = Spectrum.from_values(np.geomspace(1.0, 1e-12, 10))
        pm = gen_gaussian_decay(30, 25, spec, seed=14)
        basis = pm.factors.u[:, :2]
        calls = self.dense_calls(monkeypatch)
        got = residual_spectrum(pm.a, basis, "left", 6).values
        resid = pm.a - basis @ (basis.T @ pm.a)
        assert calls == [(30, 25)]
        assert np.array_equal(got, np.linalg.svd(resid, compute_uv=False)[:6])

    @pytest.mark.parametrize("values, fallback", [(np.geomspace(1.0, 0.1, 20), False),
                                                  (np.geomspace(1.0, 1e-12, 10), True)])
    def test_right_residual_of_blocks_is_residual_spectrum(self, monkeypatch, values,
                                                           fallback):
        # past sigma_8, rank 20 and a slow decay leave six values that the
        # Gram route certifies; rank 10 and a fast decay leave two tiny
        # values and round-off, which take the dense fallback
        pm = gen_gaussian_decay(30, 25, Spectrum.from_values(values), seed=17)
        out = rsvd(pm.a, SketchConfig(6, 8, 0, seed=0))
        expect = residual_spectrum(pm.a, out.v, "right", 6).values
        calls = self.dense_calls(monkeypatch)
        got = residual_blocks(pm.a, out, 6).right_residual.values
        assert ((30, 25) in calls) == fallback
        assert np.array_equal(got, expect)

    def test_slow_decaying_residual_takes_gram_route(self, monkeypatch):
        spec = Spectrum.from_values(np.geomspace(1.0, 0.1, 20))
        pm = gen_gaussian_decay(30, 25, spec, seed=16)
        calls = self.dense_calls(monkeypatch)
        got = residual_spectrum(pm.a, pm.factors.u[:, :2], "left", 6).values
        assert calls == []
        assert got == pytest.approx(spec.values[2:8], rel=1e-12)

    @pytest.mark.parametrize("k", [0, 26])
    def test_k_out_of_range_rejected(self, k):
        pm = gen_gaussian_decay(30, 25, Spectrum.from_values([2.0, 1.0, 0.5]), seed=15)
        with pytest.raises(ValueError, match="k out of range"):
            residual_spectrum(pm.a, pm.factors.u[:, :1], "left", k)


class TestRatioBounds:
    def test_hand_example_with_exact_basis(self):
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.5, 0.25])
        pm = gen_gaussian_decay(30, 25, spec, seed=4)
        res = residual_spectrum(pm.a, pm.factors.u[:, :3], "left", 2)
        rep = residual_ratio_bounds(res, spec, k=2, side="left")
        # min(residual_2 / sigma_2, residual_1 / sigma_1) = min(0.25/2, 0.5/3)
        assert rep.values[0] == pytest.approx(0.125, abs=1e-9)
        assert rep.values[1] == pytest.approx(min(0.5 / 2.0, 0.5 / 2.0), abs=1e-9)
        sines = canonical_sines(pm.factors.u[:, :3], pm.factors.u[:, :2])
        assert (rep.values >= sines).all()

    def test_zero_residual_gives_zero_bounds(self):
        res = Spectrum(np.zeros(3), 0)
        spec = Spectrum.from_values([4.0, 3.0, 2.0, 1.0, 0.5, 0.2])
        rep = residual_ratio_bounds(res, spec, k=3)
        assert np.all(rep.values == 0.0)

    def test_scale_invariance(self):
        spec = Spectrum.from_values(np.geomspace(4.0, 0.1, 25))
        pm = gen_gaussian_decay(40, 40, spec, seed=5)
        out = rsvd(pm.a, SketchConfig(4, 10, 1, seed=0))
        res = residual_spectrum(pm.a, out.u, "left", 4)
        rep = residual_ratio_bounds(res, spec, 4)
        res_c = residual_spectrum(1e4 * pm.a, out.u, "left", 4)
        scaled = Spectrum(spec.values * 1e4, spec.declared_rank)
        rep_c = residual_ratio_bounds(res_c, scaled, 4)
        assert np.allclose(rep.values, rep_c.values, rtol=1e-10)

    def test_rank_beyond_numerical_rank_rejected(self):
        res = Spectrum.from_values([1.0, 0.5])
        spec = Spectrum.from_values([2.0, 0.0])
        with pytest.raises(ValueError, match="target rank exceeds numerical rank"):
            residual_ratio_bounds(res, spec, k=2)


class TestResidualBlocks:
    def test_norms_match_dense_residual(self):
        spec = Spectrum.from_values(np.geomspace(3.0, 0.05, 30))
        pm = gen_gaussian_decay(50, 40, spec, seed=8)
        out = rsvd(pm.a, SketchConfig(5, 12, 0, seed=3))
        stats = residual_blocks(pm.a, out, k=5)
        err = pm.a - (out.u * out.sigma) @ out.v.T
        assert stats.resid_in_basis_2 == pytest.approx(
            np.linalg.norm(err @ out.v, 2), rel=1e-12)
        assert stats.resid_beyond_k_2 == pytest.approx(
            np.linalg.norm(err @ out.v[:, 5:], 2), rel=1e-12)

    def test_diagonal_hand_values(self):
        a = np.diag([4.0, 2.0, 1.0, 0.5])
        stats = residual_blocks(a, exact_rank_l_output(a, 2), k=1)
        assert stats.resid_in_basis_2 == pytest.approx(0.0, abs=1e-12)
        assert stats.resid_beyond_k_2 == pytest.approx(0.0, abs=1e-12)
        assert stats.resid_out_of_basis_2 == pytest.approx(1.0, abs=1e-12)
        assert stats.sigma_hat_next == pytest.approx(2.0)
        # unit residual norms, sigma_hat_2 = 2 and sigma_1 = 4: gaps
        # (16 - 4)/4 = 3 and (16 - 4)/2 = 6 from sigma_hat, (16 - 1)/4 and
        # (16 - 1)/1 = 15 from the out-of-basis norm
        hand = ResidualStats(1.0, 1.0, Spectrum.from_values([1.0]), 2.0)
        reports = {(r.kind, r.side): r.values
                   for r in gap_bounds(hand, Spectrum.from_values([4.0, 2.0, 1.0, 0.5]), 1)}
        assert reports[("gap_norm_rank_l", "left")][0] == pytest.approx(4.0 / 15.0)
        assert reports[("gap_norm_rank_l", "right")][0] == pytest.approx(1.0 / 15.0)
        assert reports[("gap_norm_rank_k", "left")][0] == pytest.approx(
            2.0 * np.sqrt(37.0) / 45.0)
        assert reports[("gap_norm_rank_k", "right")][0] == pytest.approx(1.0 / 9.0)

    def test_full_rank_capture_zeroes_all_norms(self):
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.4])
        pm = gen_gaussian_decay(14, 12, spec, seed=6)
        out = rsvd(pm.a, SketchConfig(2, 4, 1, seed=1))
        stats = residual_blocks(pm.a, out, k=2)
        assert stats.resid_in_basis_2 <= 1e-10
        assert stats.resid_out_of_basis_2 <= 1e-10
        assert len(gap_bounds(stats, spec, 2)) == 8

    def test_pythagorean_split_of_residual(self):
        spec = Spectrum.from_values(np.geomspace(3.0, 0.05, 30))
        pm = gen_gaussian_decay(50, 40, spec, seed=7)
        out = rsvd(pm.a, SketchConfig(5, 12, 0, seed=2))
        err = pm.a - (out.u * out.sigma) @ out.v.T
        in_basis = np.linalg.norm(err @ out.v) ** 2
        out_basis = np.linalg.norm(err - (err @ out.v) @ out.v.T) ** 2
        assert np.linalg.norm(err) ** 2 == pytest.approx(in_basis + out_basis, rel=1e-10)

    def test_gaps_absent_when_assumptions_fail(self):
        a = np.diag([4.0, 2.0, 1.0, 0.5])
        stats = residual_blocks(a, exact_rank_l_output(a, 2), k=1)
        spec = Spectrum.from_values([0.9, 0.5, 0.25, 0.1])  # sigma_k below both norms
        with pytest.raises(GapViolated, match="gap assumption violated"):
            gap_bounds(stats, spec, 1)


class TestGapBounds:
    def test_zero_residuals_give_zero_rank_l_bounds(self):
        a = np.diag([4.0, 2.0, 1.0, 0.5])
        out = exact_rank_l_output(a, 3)
        stats = residual_blocks(a, out, k=2)
        spec = Spectrum.from_values([4.0, 2.0, 1.0, 0.5])
        reports = {(r.kind, r.side): r for r in gap_bounds(stats, spec, 2)}
        for side in ("left", "right"):
            assert np.all(reports[("gap_norm_rank_l", side)].values <= 1e-12)
            assert np.all(reports[("gap_anglewise_rank_l", side)].values <= 1e-12)

    def test_flat_top_block_collapses_anglewise_factor(self):
        spec = Spectrum.from_values([2.0, 2.0, 2.0, 1.0, 0.5])
        pm = gen_gaussian_decay(20, 18, spec, seed=9)
        out = rsvd(pm.a, SketchConfig(3, 4, 1, seed=4))
        stats = residual_blocks(pm.a, out, k=3)
        reports = {(r.kind, r.side): r for r in gap_bounds(stats, spec, 3)}
        for side in ("left", "right"):
            norm = reports[("gap_norm_rank_l", side)].values
            angle = reports[("gap_anglewise_rank_l", side)].values
            assert np.allclose(norm, angle, rtol=1e-12)

    def test_right_bound_is_left_scaled_by_residual_ratio(self):
        spec = Spectrum.from_values(np.geomspace(4.0, 0.02, 40))
        pm = gen_gaussian_decay(60, 50, spec, seed=10)
        out = rsvd(pm.a, SketchConfig(6, 15, 0, seed=5))
        stats = residual_blocks(pm.a, out, k=6)
        reports = {(r.kind, r.side): r for r in gap_bounds(stats, spec, 6)}
        left = reports[("gap_norm_rank_l", "left")].values
        right = reports[("gap_norm_rank_l", "right")].values
        sigma_k, out2 = spec.values[5], stats.resid_out_of_basis_2
        ratio = out2 / sigma_k
        d_resid = sigma_k**2 - out2**2
        expect_left = min(stats.resid_in_basis_2 / (d_resid / sigma_k), 1.0)
        expect_right = min(stats.resid_in_basis_2 / (d_resid / out2), 1.0)
        assert np.allclose(left, expect_left, rtol=1e-12)
        assert np.allclose(right, expect_right, rtol=1e-12)
        # the right bound is the left one shrunk by the residual-to-sigma ratio
        assert left[0] < 1.0
        assert right[0] / left[0] == pytest.approx(ratio, rel=1e-12)
        assert (right <= left + 1e-15).all()

    def test_gap_violation_raises(self):
        a = np.diag([4.0, 2.0, 1.0, 0.5])
        stats = residual_blocks(a, exact_rank_l_output(a, 2), k=1)
        spec = Spectrum.from_values([1.5, 1.0, 0.5, 0.25])  # sigma_k below sigma_hat_next
        with pytest.raises(GapViolated, match="gap assumption violated"):
            gap_bounds(stats, spec, 1)

    def test_scale_invariance(self):
        spec = Spectrum.from_values(np.geomspace(4.0, 0.02, 40))
        pm = gen_gaussian_decay(60, 50, spec, seed=11)
        out = rsvd(pm.a, SketchConfig(6, 15, 1, seed=6))
        for c in (1e-4, 1e4):
            base = residual_blocks(pm.a, out, k=6)
            out_c = rsvd(c * pm.a, SketchConfig(6, 15, 1, seed=6))
            scaled = residual_blocks(c * pm.a, out_c, k=6)
            a_reports = gap_bounds(base, spec, 6)
            b_reports = gap_bounds(scaled, Spectrum(spec.values * c, spec.declared_rank), 6)
            for ra, rb in zip(a_reports, b_reports):
                assert np.allclose(ra.values, rb.values, rtol=1e-9)

    def test_domination_on_fast_decay_runs(self):
        spec = spectrum_faster(120, 10)
        pm = gen_gaussian_decay(120, 120, spec, seed=12)
        k, l = 12, 48
        for seed in range(3):
            for q in (0, 1):
                out = rsvd(pm.a, SketchConfig(k, l, q, seed))
                stats = residual_blocks(pm.a, out, k)
                reports = gap_bounds(stats, spec, k)
                truth = {
                    ("left", "rank_l"): canonical_sines(out.u, pm.factors.u[:, :k]),
                    ("right", "rank_l"): canonical_sines(out.v, pm.factors.v[:, :k]),
                    ("left", "rank_k"): canonical_sines(out.u[:, :k], pm.factors.u[:, :k]),
                    ("right", "rank_k"): canonical_sines(out.v[:, :k], pm.factors.v[:, :k]),
                }
                for rep in reports:
                    width = "rank_k" if rep.kind.endswith("rank_k") else "rank_l"
                    assert (rep.values >= truth[(rep.side, width)]).all(), (
                        rep.kind, rep.side, seed, q)
