import struct

import numpy as np
import pytest

from rsvdangles.angles import canonical_sines
from rsvdangles import matgen
from rsvdangles.linalg import Spectrum, seeded_rng, sv_x_pinv, svd_full
from rsvdangles.matgen import (gaussian_decay_right_sketch, gen_gaussian_decay,
                               gen_snn, gen_step_spectrum, load_mnist,
                               spectrum_faster, spectrum_slower)


class TestGaussianDecay:
    def test_rank_one(self):
        pm = gen_gaussian_decay(15, 12, Spectrum.from_values([1.0]), seed=0)
        assert np.allclose(svd_full(pm.a).sigma[0], 1.0, atol=1e-12)
        assert svd_full(pm.a).sigma[1] <= 1e-12

    def test_planted_factors_are_exact(self):
        spec = spectrum_slower(60, 8)
        pm = gen_gaussian_decay(80, 70, spec, seed=1)
        f = pm.factors
        assert np.linalg.norm(f.reconstruct() - pm.a) <= 1e-10 * np.linalg.norm(pm.a)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(60), 2) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(60), 2) <= 1e-10

    def test_planted_subspace_matches_computed_svd(self):
        spec = Spectrum.from_values(np.geomspace(4.0, 0.5, 30))  # strictly decreasing
        pm = gen_gaussian_decay(50, 40, spec, seed=2)
        computed = svd_full(pm.a)
        sines = canonical_sines(pm.factors.u[:, :6], computed.u[:, :6])
        assert np.all(sines <= 1e-8)

    def test_independent_seeds_give_distant_subspaces(self):
        spec = spectrum_slower(40, 5)
        a = gen_gaussian_decay(100, 100, spec, seed=3)
        b = gen_gaussian_decay(100, 100, spec, seed=4)
        assert np.array_equal(a.factors.sigma, b.factors.sigma)
        sines = canonical_sines(a.factors.u[:, :5], b.factors.u[:, :5])
        assert sines[-1] > 0.5

    def test_rank_cannot_exceed_dimensions(self):
        with pytest.raises(ValueError, match="declared rank"):
            gen_gaussian_decay(5, 5, spectrum_slower(10, 2), seed=0)

    def test_right_sketch_is_v_transpose_omega(self, monkeypatch):
        # rank n, so v[:, k:] spans the complement of span(v_k)
        spec = spectrum_slower(35, 4)
        pm = gen_gaussian_decay(40, 35, spec, seed=5)
        omega = seeded_rng(9).standard_normal((35, 6))
        v, k = pm.factors.v, 4
        head = v[:, :k].T @ omega
        got = gaussian_decay_right_sketch(40, 35, spec, 5, k, omega)
        assert got.shape == (k + 6, 6)
        assert np.linalg.norm(got[:k] - head) <= 1e-13 * np.linalg.norm(head)
        # T is triangular with T^T T = omega^T (I - V_k V_k^T) omega
        t = got[k:]
        assert np.array_equal(t, np.triu(t))
        gram = omega.T @ omega - head.T @ head
        assert np.linalg.norm(t.T @ t - gram) <= 1e-13 * np.linalg.norm(omega) ** 2
        want = sv_x_pinv(head, v[:, k:].T @ omega)
        assert sv_x_pinv(got[:k], t) == pytest.approx(want, rel=1e-12, abs=0)
        # a stream that skipped the left draw would plant another v
        monkeypatch.setattr(matgen, "_planted_draws", lambda m, n, r, seed:
                            (None, seeded_rng(seed).standard_normal((n, r))))
        skipped = gaussian_decay_right_sketch(40, 35, spec, 5, k, omega)
        assert np.linalg.norm(skipped[:k] - head) > 0.1 * np.linalg.norm(head)

    def test_right_sketch_checks_rank(self, monkeypatch):
        with pytest.raises(ValueError, match="declared rank"):
            gaussian_decay_right_sketch(5, 5, spectrum_slower(10, 2), 0, 1, np.ones((5, 1)))
        # the first two of the block's columns are equal, the third apart;
        # k=1 passes, as only the first k columns are checked
        block = np.ones((8, 3))
        block[:, 2] = np.arange(8.0)
        monkeypatch.setattr(matgen, "_planted_draws", lambda m, n, r, seed: (None, block))
        omega = seeded_rng(1).standard_normal((8, 2))
        gaussian_decay_right_sketch(8, 8, spectrum_slower(3, 1), 0, 1, omega)
        with pytest.raises(ValueError, match="rank deficient sketch"):
            gaussian_decay_right_sketch(8, 8, spectrum_slower(3, 1), 0, 2, omega)


class TestSpectrumFamilies:
    def test_slower_decay_values(self):
        spec = spectrum_slower(30, 20)
        assert spec.values[19] == 1.0
        assert spec.values[20] == pytest.approx(1.0 / np.sqrt(2.0))
        assert spec.values[23] == pytest.approx(1.0 / np.sqrt(5.0))

    def test_slower_flat_when_head_covers_everything(self):
        assert np.all(spectrum_slower(12, 12).values == 1.0)

    def test_faster_decay_values(self):
        spec = spectrum_faster(500, 20)
        assert spec.values[20] == pytest.approx(0.99)
        # 0.99^(i-20) stays above the 1e-3 floor for i <= 500
        assert spec.values[-1] == pytest.approx(0.99 ** 480)
        assert spec.values[-1] > 1e-3

    def test_faster_decay_floor(self):
        spec = spectrum_faster(800, 20)
        assert spec.values[-1] == pytest.approx(1e-3)

    @pytest.mark.parametrize("maker", [spectrum_slower, spectrum_faster])
    def test_non_increasing_scan(self, maker):
        spec = maker(500, 20)
        assert (np.diff(spec.values) <= 0).all()


class TestStepSpectrum:
    def test_shape_and_levels(self):
        spec = gen_step_spectrum(10, 32.0, 1.01)
        assert spec.size == 330
        assert np.all(spec.values[:10] == 1.01)
        assert np.all(spec.values[10:] == 1.0)

    def test_unit_gap_is_flat(self):
        assert np.all(gen_step_spectrum(4, 2.0, 1.0).values == 1.0)

    def test_flat_tail_spread_equals_count(self):
        spec = gen_step_spectrum(10, 32.0, 1.5)
        assert np.array_equal(spec.tail(10), np.ones(320))

    def test_validation(self):
        with pytest.raises(ValueError, match="gap"):
            gen_step_spectrum(4, 2.0, 0.9)
        with pytest.raises(ValueError, match="integral"):
            gen_step_spectrum(4, 2.3, 1.1)


class TestSnn:
    def test_single_term_scales_linearly_with_weight(self):
        # min(m, n) = r1 = 1 leaves exactly one rank-1 term, so the head
        # weight scales the whole matrix
        base = gen_snn(40, 1, r1=1, a_param=1.0, density=1.0, seed=5)
        tripled = gen_snn(40, 1, r1=1, a_param=3.0, density=1.0, seed=5)
        assert np.allclose(tripled.a, 3.0 * base.a, rtol=1e-14)
        assert svd_full(tripled.a).sigma[0] == pytest.approx(
            3.0 * svd_full(base.a).sigma[0], rel=1e-12)

    def test_nonnegative_entries(self):
        pm = gen_snn(60, 50, r1=5, a_param=10.0, density=0.2, seed=6)
        assert (pm.a >= 0.0).all()

    def test_preset_shapes_and_descriptor(self):
        for a_param in (1.0, 100.0):
            pm = gen_snn(120, 120, r1=20, a_param=a_param, density=0.05, seed=7)
            assert pm.a.shape == (120, 120)
            assert pm.name == "snn"
            assert np.linalg.norm(pm.factors.reconstruct() - pm.a) <= \
                1e-10 * np.linalg.norm(pm.a)

    def test_determinism(self):
        a = gen_snn(30, 30, 4, 2.0, 0.3, seed=8).a
        b = gen_snn(30, 30, 4, 2.0, 0.3, seed=8).a
        assert np.array_equal(a, b)

    def test_head_weight_amplifies_leading_values(self):
        lo = gen_snn(80, 80, r1=10, a_param=1.0, density=0.2, seed=9)
        hi = gen_snn(80, 80, r1=10, a_param=50.0, density=0.2, seed=9)
        ratio = svd_full(hi.a).sigma[0] / svd_full(lo.a).sigma[0]
        assert 10.0 < ratio < 60.0


def write_idx3(path, images):
    """images: uint8 array (count, rows, cols) serialized in IDX3 layout."""
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.tobytes())


@pytest.fixture
def idx_file(tmp_path):
    rng = np.random.default_rng(13)
    images = np.where(rng.random((50, 6, 7)) < 0.2,
                      rng.integers(1, 256, (50, 6, 7)), 0).astype(np.uint8)
    path = tmp_path / "images.idx3"
    write_idx3(path, images)
    return path, images


class TestLoadMnist:
    def test_entries_bounded_and_shape(self, idx_file):
        path, _ = idx_file
        m = load_mnist(path, n_samples=20, seed=0)
        assert m.shape == (20, 42)
        assert m.min() >= 0.0 and m.max() <= 1.0

    def test_sparse_digit_like_density(self, idx_file):
        path, _ = idx_file
        m = load_mnist(path, n_samples=40, seed=1)
        frac = np.count_nonzero(m) / m.size
        assert 0.12 <= frac <= 0.30

    def test_deterministic_row_selection(self, idx_file):
        path, _ = idx_file
        a = load_mnist(path, n_samples=10, seed=3)
        b = load_mnist(path, n_samples=10, seed=3)
        c = load_mnist(path, n_samples=10, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rows_sampled_without_replacement(self, idx_file):
        path, images = idx_file
        m = load_mnist(path, n_samples=50, seed=5)
        flat = images.reshape(50, -1).astype(np.float64) / 255.0
        assert np.allclose(np.sort(m.sum(axis=1)), np.sort(flat.sum(axis=1)))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx3"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000801, 2, 2, 2))
            fh.write(bytes(8))
        with pytest.raises(ValueError, match="malformed IDX file"):
            load_mnist(path, 1, seed=0)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.idx3"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 4, 3, 3))
            fh.write(bytes(10))
        with pytest.raises(ValueError, match="malformed IDX file"):
            load_mnist(path, 1, seed=0)
