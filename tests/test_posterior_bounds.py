from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from rsvdangles import posterior_bounds
from rsvdangles.angles import canonical_sines
from rsvdangles.harness import PRESETS, ExperimentConfig, Target, _run_single, build_matrix
from rsvdangles.linalg import _EPS, Spectrum, SvdFactors, ortho, seeded_rng, svd_full
from rsvdangles.matgen import gen_gaussian_decay, spectrum_faster
from rsvdangles.posterior_bounds import (ResidualStats, gap_bounds,
                                         residual_blocks,
                                         residual_ratio_bounds,
                                         residual_spectrum)
from rsvdangles.prior_bounds import GapViolated
from rsvdangles.report import GAP_KINDS, STATUS_OK, STATUS_TRIVIAL
from rsvdangles.rsvd import rsvd


def exact_rank_l_output(a, l):
    """Rank-l truncation of the exact SVD packaged as an algorithm output."""
    f = svd_full(a)
    return SvdFactors(f.u[:, :l], f.sigma[:l], f.v[:, :l])


class TestResidualSpectrum:
    def test_full_span_basis_kills_residual(self):
        rng = seeded_rng(0)
        a = rng.standard_normal((20, 6)) @ rng.standard_normal((6, 15))
        basis = ortho(a[:, :6] @ rng.standard_normal((6, 6)))
        res = residual_spectrum(a, basis, 3)
        assert res.values[0] <= 1e-12 * np.linalg.norm(a)

    def test_exact_leading_basis_exposes_tail(self):
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.5, 0.25])
        a, f = gen_gaussian_decay(30, 25, spec, seed=1)
        res = residual_spectrum(a, f.u[:, :3], 3)
        assert np.allclose(res.values[:2], [0.5, 0.25], atol=1e-10)
        assert res.values[2] <= 1e-10

    def test_orthogonal_basis_leaves_spectrum_unchanged(self):
        spec = Spectrum.from_values([2.0, 1.5, 1.0])
        a, f = gen_gaussian_decay(12, 10, spec, seed=2)
        # a unit vector orthogonal to the column space of a
        v = np.linalg.qr(f.u, mode="complete")[0][:, 3:4]
        res = residual_spectrum(a, v, 3)
        assert np.allclose(res.values, spec.values, atol=1e-10)

    def test_right_side_uses_row_space(self):
        # residual_blocks gives the right residual a - a v v^T
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.5, 0.25])
        a, f = gen_gaussian_decay(18, 16, spec, seed=3)
        res = residual_blocks(a, SvdFactors(f.u[:, :3], f.sigma[:3], f.v[:, :3]),
                              2).right_residual
        assert np.allclose(res.values, [0.5, 0.25], atol=1e-10)
        basis = f.v[:, :3]
        dense = np.linalg.svd(a - (a @ basis) @ basis.T, compute_uv=False)[:2]
        assert res.values == pytest.approx(dense, rel=1e-9)


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
                    out = rsvd(a, l, q, seed)
                    stats = residual_blocks(a, out, k)
                    for side, got in (("left", residual_spectrum(a, out.u, k).values),
                                      ("right", stats.right_residual.values)):
                        resid = (a - out.u @ (out.u.T @ a) if side == "left"
                                 else a - (a @ out.v) @ out.v.T)
                        dense = np.linalg.svd(resid, compute_uv=False)[:k]
                        assert got.size == k
                        assert (got >= dense).all(), (l, q, seed, side)
                        assert got == pytest.approx(dense, rel=1e-9)
                    err_v = a @ out.v - out.u * out.sigma
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
        # 3 and 4 are round-off, far below the Gram route's margin; on the
        # right the basis is that of the rank-5 truncation, as residual_blocks
        # needs l > k
        spec = Spectrum.from_values([4.0, 3.5, 3.0, 2.0, 1.0, 0.5, 0.25])
        a, f = gen_gaussian_decay(30, 25, spec, seed=13)
        calls = self.dense_calls(monkeypatch)
        if side == "left":
            got = residual_spectrum(a, f.u[:, :5], 4).values
        else:
            got = residual_blocks(a, SvdFactors(f.u[:, :5], f.sigma[:5], f.v[:, :5]),
                                  4).right_residual.values
        assert calls == [(30, 25)]
        assert np.allclose(got[:2], [0.5, 0.25], atol=1e-10)
        assert (got[2:] <= 1e-14).all()

    def test_zero_residual_takes_dense_fallback(self, monkeypatch):
        a = np.diag([4.0, 2.0, 1.0])
        calls = self.dense_calls(monkeypatch)
        got = residual_spectrum(a, np.eye(3, 3), 2).values
        assert calls == [(3, 3)]
        assert np.array_equal(got, [0.0, 0.0])

    def test_fast_decaying_residual_takes_dense_fallback(self, monkeypatch):
        spec = Spectrum.from_values(np.geomspace(1.0, 1e-12, 10))
        a, f = gen_gaussian_decay(30, 25, spec, seed=14)
        basis = f.u[:, :2]
        calls = self.dense_calls(monkeypatch)
        got = residual_spectrum(a, basis, 6).values
        resid = a - basis @ (basis.T @ a)
        assert calls == [(30, 25)]
        assert np.array_equal(got, np.linalg.svd(resid, compute_uv=False)[:6])

    def test_slow_decaying_residual_takes_gram_route(self, monkeypatch):
        spec = Spectrum.from_values(np.geomspace(1.0, 0.1, 20))
        a, f = gen_gaussian_decay(30, 25, spec, seed=16)
        calls = self.dense_calls(monkeypatch)
        got = residual_spectrum(a, f.u[:, :2], 6).values
        assert calls == []
        assert got == pytest.approx(spec.values[2:8], rel=1e-12)

    @pytest.mark.parametrize("k", [0, 26])
    def test_k_out_of_range_rejected(self, k):
        a, f = gen_gaussian_decay(30, 25, Spectrum.from_values([2.0, 1.0, 0.5]), seed=15)
        with pytest.raises(ValueError, match="k out of range"):
            residual_spectrum(a, f.u[:, :1], k)


class TestRatioBounds:
    def test_hand_example_with_exact_basis(self):
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.5, 0.25])
        a, f = gen_gaussian_decay(30, 25, spec, seed=4)
        res = residual_spectrum(a, f.u[:, :3], 2)
        rep = residual_ratio_bounds(res, spec, k=2)
        # min(residual_2 / sigma_2, residual_1 / sigma_1) = min(0.25/2, 0.5/3)
        assert rep.values[0] == pytest.approx(0.125, abs=1e-9)
        assert rep.values[1] == pytest.approx(min(0.5 / 2.0, 0.5 / 2.0), abs=1e-9)
        sines = canonical_sines(f.u[:, :3], f.u[:, :2])
        assert (rep.values >= sines).all()

    def test_zero_residual_gives_zero_bounds(self):
        res = Spectrum(np.zeros(3), 0)
        spec = Spectrum.from_values([4.0, 3.0, 2.0, 1.0, 0.5, 0.2])
        rep = residual_ratio_bounds(res, spec, k=3)
        assert np.all(rep.values == 0.0)

    def test_scale_invariance(self):
        spec = Spectrum.from_values(np.geomspace(4.0, 0.1, 25))
        a, f = gen_gaussian_decay(40, 40, spec, seed=5)
        out = rsvd(a, 10, 1, 0)
        res = residual_spectrum(a, out.u, 4)
        rep = residual_ratio_bounds(res, spec, 4)
        res_c = residual_spectrum(1e4 * a, out.u, 4)
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
        a, f = gen_gaussian_decay(50, 40, spec, seed=8)
        out = rsvd(a, 12, 0, 3)
        stats = residual_blocks(a, out, k=5)
        err = a - (out.u * out.sigma) @ out.v.T
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
        hand = ResidualStats(1.0, 1.0, Spectrum.from_values([1.0]), 2.0, 0.0)
        reports = gap_bounds(hand, Spectrum.from_values([4.0, 2.0, 1.0, 0.5]), 1)
        assert reports["gap_norm_rank_l", "left"].values[0] == pytest.approx(4.0 / 15.0)
        assert reports["gap_norm_rank_l", "right"].values[0] == pytest.approx(1.0 / 15.0)
        assert reports["gap_norm_rank_k", "left"].values[0] == pytest.approx(
            2.0 * np.sqrt(37.0) / 45.0)
        assert reports["gap_norm_rank_k", "right"].values[0] == pytest.approx(1.0 / 9.0)

    def test_full_rank_capture_zeroes_all_norms(self):
        spec = Spectrum.from_values([3.0, 2.0, 1.0, 0.4])
        a, f = gen_gaussian_decay(14, 12, spec, seed=6)
        out = rsvd(a, 4, 1, 1)
        stats = residual_blocks(a, out, k=2)
        assert stats.resid_in_basis_2 <= 1e-10
        assert stats.resid_out_of_basis_2 <= 1e-10
        assert len(gap_bounds(stats, spec, 2)) == 8

    def test_pythagorean_split_of_residual(self):
        spec = Spectrum.from_values(np.geomspace(3.0, 0.05, 30))
        a, f = gen_gaussian_decay(50, 40, spec, seed=7)
        out = rsvd(a, 12, 0, 2)
        err = a - (out.u * out.sigma) @ out.v.T
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
        reports = gap_bounds(stats, spec, 2)
        for side in ("left", "right"):
            assert np.all(reports[("gap_norm_rank_l", side)].values <= 1e-12)
            assert np.all(reports[("gap_anglewise_rank_l", side)].values <= 1e-12)

    def test_flat_top_block_collapses_anglewise_factor(self):
        spec = Spectrum.from_values([2.0, 2.0, 2.0, 1.0, 0.5])
        a, f = gen_gaussian_decay(20, 18, spec, seed=9)
        out = rsvd(a, 4, 1, 4)
        stats = residual_blocks(a, out, k=3)
        reports = gap_bounds(stats, spec, 3)
        for side in ("left", "right"):
            norm = reports[("gap_norm_rank_l", side)].values
            angle = reports[("gap_anglewise_rank_l", side)].values
            assert np.allclose(norm, angle, rtol=1e-12)

    def test_right_bound_is_left_scaled_by_residual_ratio(self):
        spec = Spectrum.from_values(np.geomspace(4.0, 0.02, 40))
        a, f = gen_gaussian_decay(60, 50, spec, seed=10)
        out = rsvd(a, 15, 0, 5)
        stats = residual_blocks(a, out, k=6)
        reports = gap_bounds(stats, spec, 6)
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

    def test_a_tie_across_sigma_k_is_gap_violated(self):
        # sigma_18 = sigma_19 = 1 and l = rank: the sketch catches the tie, so
        # sigma_hat_19 rounds to one ulp below sigma_18 = 1. The leading
        # 18-subspace is undefined; the planted v_18 lies at sine 0.9993.
        values = np.geomspace(1.0, 0.1, 22)
        values[:19] = 1.0
        spec = Spectrum.from_values(values)
        a, planted = gen_gaussian_decay(39, 33, spec, 450672396)
        k, out = 18, rsvd(a, 22, 1, 606649342)
        assert canonical_sines(out.v[:, :k], planted.v[:, :k])[-1] > 0.99
        stats = residual_blocks(a, out, k)
        assert 0.0 < 1.0 - stats.sigma_hat_next < stats.sigma_hat_margin < 1e-12
        with pytest.raises(GapViolated, match="gap assumption violated"):
            gap_bounds(stats, spec, k)

    def test_keys_are_every_gap_kind_on_both_sides(self):
        spec = Spectrum.from_values(np.geomspace(4.0, 0.02, 40))
        a, _ = gen_gaussian_decay(60, 50, spec, seed=17)
        stats = residual_blocks(a, rsvd(a, 15, 0, 3), 6)
        assert set(gap_bounds(stats, spec, 6)) == {
            (kind, side) for kind in GAP_KINDS for side in ("left", "right")}

    def test_scale_invariance(self):
        spec = Spectrum.from_values(np.geomspace(4.0, 0.02, 40))
        a, f = gen_gaussian_decay(60, 50, spec, seed=11)
        out = rsvd(a, 15, 1, 6)
        for c in (1e-4, 1e4):
            base = residual_blocks(a, out, k=6)
            out_c = rsvd(c * a, 15, 1, 6)
            scaled = residual_blocks(c * a, out_c, k=6)
            a_reports = gap_bounds(base, spec, 6)
            b_reports = gap_bounds(scaled, Spectrum(spec.values * c, spec.declared_rank), 6)
            assert a_reports.keys() == b_reports.keys()
            for key, ra in a_reports.items():
                assert np.allclose(ra.values, b_reports[key].values, rtol=1e-9)

    def test_domination_on_fast_decay_runs(self):
        spec = spectrum_faster(120, 10)
        a, f = gen_gaussian_decay(120, 120, spec, seed=12)
        k, l = 12, 48
        for seed in range(3):
            for q in (0, 1):
                out = rsvd(a, l, q, seed)
                stats = residual_blocks(a, out, k)
                reports = gap_bounds(stats, spec, k)
                truth = {
                    ("left", "rank_l"): canonical_sines(out.u, f.u[:, :k]),
                    ("right", "rank_l"): canonical_sines(out.v, f.v[:, :k]),
                    ("left", "rank_k"): canonical_sines(out.u[:, :k], f.u[:, :k]),
                    ("right", "rank_k"): canonical_sines(out.v[:, :k], f.v[:, :k]),
                }
                for (kind, side), rep in reports.items():
                    width = "rank_k" if kind.endswith("rank_k") else "rank_l"
                    assert (rep.values >= truth[(side, width)]).all(), (kind, side, seed, q)


# The kinds a run writes as certificates: each must lie at or above its true
# sine wherever its row reads ok or trivial_bound.
CERTIFICATES = ("residual_ratio",) + GAP_KINDS


def _sines_floor(d: int, w: int) -> float:
    """How far canonical_sines may round a sine between a d-by-w and a d-by-k
    basis (k <= w) away from the exact one.

    Each of its two Householder Q factors lies within sqrt(w) g of an
    orthonormal basis of its input perturbed column-wise by g, g = c d w u
    with u = eps / 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 19.4); c is Higham's small constant, taken as 1.
    The inputs here have orthonormal columns, so by Weyl's inequality that
    drift of basis and of range moves a sine by at most 2 sqrt(w) g per
    factor, 4 sqrt(w) g for the two; doubling that covers the products and
    the SVD, whose rounding is of lower order, d u and w u."""
    return 8.0 * np.sqrt(w) * d * w * (_EPS / 2)


def _truth_floor(f: SvdFactors, k: int) -> float:
    """How far a sine read against the planted u_k or v_k may lie from the one
    against the leading k-subspace of the matrix gen_gaussian_decay returned;
    inf where that subspace is not determined.

    The matrix is fl(fl(u sigma) v^T), off u sigma v^T by at most
    gamma_{r+1} |u| sigma |v|^T entrywise (Higham, sec. 3.5). The factors
    are orthonormal to rho = ||x^T x - I||_F, so the Q factor U' of u, with
    range(U'_k) = range(u_k), lies within rho_u of u to first order, and
    likewise V'. So ||a - U' sigma V'^T||_2 <= e = gamma_{r+1} ||sigma||_2
    sqrt(r) (1 + rho_u)(1 + rho_v) + sigma_1 (rho_u + rho_v + rho_u rho_v).
    By Wedin's theorem (Stewart and Sun, Matrix Perturbation Theory, Thm
    V.4.4) the leading k-subspaces of a lie within sin theta <= e /
    (sigma_k - sigma_{k+1} - e) of range(u_k) and range(v_k), and a sine read
    against either moves by at most sqrt(2) times that."""
    sigma, r = f.sigma, f.sigma.size
    rho_u, rho_v = (np.linalg.norm(x.T @ x - np.eye(r)) for x in (f.u, f.v))
    gamma = (r + 1) * (_EPS / 2) / (1 - (r + 1) * (_EPS / 2))
    e = (gamma * np.linalg.norm(sigma) * np.sqrt(r) * (1 + rho_u) * (1 + rho_v)
         + sigma[0] * (rho_u + rho_v + rho_u * rho_v))
    gap = sigma[k - 1] - (sigma[k] if k < r else 0.0) - e
    return float(np.sqrt(2) * e / gap) if gap > 0 else np.inf


# derandomize seeds hypothesis from the source of the function it runs; the
# property test pins the seed that an earlier text of its check gave, so its
# 500 examples stay the same when that text changes
PLANTED_SEED = int("3821193801668525623530621155854572825600013868408462585931546907"
                   "2892066421409624378260207546060398753339343795396034")


@st.composite
def planted_runs(draw):
    """A planted matrix of 12-40 rows and columns and a (k, l, q, seed) run on
    it. The rank r may lie below min(m, n); the spectrum is smooth, has a
    near-gap below 1e-3 after sigma_k, decays geometrically to 1e-14, or
    has a tied head of t values, t ending before, at or after k."""
    m, n = draw(st.integers(12, 40)), draw(st.integers(12, 40))
    r = draw(st.integers(3, min(m, n)))
    k = draw(st.integers(1, r - 1))
    l = draw(st.integers(k + 1, r))
    shape = draw(st.sampled_from(["smooth", "near_gap", "geometric", "tied"]))
    if shape == "smooth":
        values = np.geomspace(1.0, draw(st.floats(0.01, 0.9)), r)
    elif shape == "near_gap":
        values = np.geomspace(1.0, 0.1, r)
        # sigma_{k+1} = sigma_k (1 - delta), the tail's shape kept below it
        values[k:] *= values[k - 1] * (1.0 - draw(st.floats(1e-12, 1e-3))) / values[k]
    elif shape == "geometric":
        values = np.geomspace(1.0, 1e-14, r)
    else:
        values = np.geomspace(1.0, 0.1, r)
        values[:draw(st.integers(2, r))] = 1.0
    a, planted = gen_gaussian_decay(m, n, Spectrum.from_values(values),
                                    draw(st.integers(0, 2**32 - 1)))
    return a, planted, (k, l, draw(st.integers(0, 2)), draw(st.integers(0, 2**32 - 1)))


def test_certificates_hold_on_planted_matrices():
    """Every ok or trivial_bound row of a certificate kind lies at or above its
    true sine less the floor of _sines_floor and _truth_floor, on both sides
    and both spectrum sources. Indices whose truth the matrix leaves
    undetermined (a tie across sigma_k) are counted, not compared."""
    compared, below, undetermined = Counter(), Counter(), Counter()

    @seed(PLANTED_SEED)
    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(run=planted_runs())
    def check(run):
        a, planted, task = run
        k, l = task[:2]
        spec = Spectrum.from_values(planted.sigma)
        target = Target("gaussian_decay", a, planted, spec, spec.declared_rank, True)
        rows = _run_single(target, ExperimentConfig(matrix={}, grid=[task[:3]],
                                                    estimator_trials=1), task)
        truth = {(row.side, row.kind, row.i): row.value for row in rows
                 if row.kind in ("true_angle", "true_angle_rank_k")}
        truth_floor = _truth_floor(planted, k)
        for row in rows:
            if row.kind not in CERTIFICATES or row.status not in (STATUS_OK, STATUS_TRIVIAL):
                continue
            key = row.kind, row.spectrum_source
            if not np.isfinite(truth_floor):
                undetermined[key] += 1
                continue
            rank_k = row.kind.endswith("rank_k")
            sine = truth[row.side, "true_angle_rank_k" if rank_k else "true_angle", row.i]
            d = a.shape[0] if row.side == "left" else a.shape[1]
            floor = _sines_floor(d, k if rank_k else l) + truth_floor
            assert row.value >= sine - floor, (row, sine, floor)
            compared[key] += 1
            below[key] += row.value < sine

    check()
    print("\nkind, source: held (of them only within the floor), undetermined")
    for key in sorted(compared):
        print(f"  {key[0]:22s} {key[1]:6s} {compared[key]:5d} ({below[key]:4d}),"
              f" {undetermined[key]:4d}")
    # every certificate kind held on both spectrum sources
    assert set(compared) == {(kind, source) for kind in CERTIFICATES
                             for source in ("true", "padded")}
