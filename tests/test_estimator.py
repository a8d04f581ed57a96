import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rsvdangles import estimator, workers
from rsvdangles.estimator import (TRIAL_BLOCK, estimate_cost_model,
                                  estimate_weightings, sines_from_nu,
                                  unbiased_estimate)
from rsvdangles.linalg import Spectrum
from rsvdangles.matgen import gen_step_spectrum
from rsvdangles.prior_bounds import (TailTooShort, WeightsOverflow,
                                     space_agnostic_lower,
                                     space_agnostic_upper)
from rsvdangles.rsvd import gaussian_sketch


class TestGuards:
    def test_zero_tail_beyond_k_cannot_be_estimated(self):
        spec = Spectrum([2.0, 1.0, 0.0, 0.0])
        with pytest.raises(TailTooShort, match="tail too short for estimator"):
            unbiased_estimate(spec, k=2, l=2, q=0, n_trials=1, side="left", seed=0)

    def test_tail_shorter_than_sample_size_rejected(self):
        spec = Spectrum(np.geomspace(2.0, 0.5, 12))
        with pytest.raises(TailTooShort, match="tail too short for estimator"):
            unbiased_estimate(spec, k=4, l=10, q=0, n_trials=1, side="left", seed=0)

    def test_trial_count_validation(self):
        spec = Spectrum(np.geomspace(2.0, 0.5, 12))
        with pytest.raises(ValueError, match="n_trials"):
            unbiased_estimate(spec, 2, 4, 0, 0, "left", 0)

    def test_negative_power_count_rejected(self):
        spec = Spectrum(np.geomspace(2.0, 0.5, 12))
        with pytest.raises(ValueError, match="^q must be >= 0$"):
            unbiased_estimate(spec, 2, 4, -1, 1, "left", 0)

    @pytest.mark.filterwarnings("error")
    def test_power_weight_overflow_named_without_warning(self):
        spec = Spectrum([1e200, 1e-100, 1e-120, 1e-140, 1e-160])
        with pytest.raises(WeightsOverflow, match="power weights overflow"):
            unbiased_estimate(spec, k=1, l=2, q=3, n_trials=1, side="left", seed=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("head", [1.7e308, 1e308])
    def test_head_overflowing_with_the_draw_is_weights_overflow(self, head):
        # the weights are finite; 1.7e308 overflows in weights times draw,
        # 1e308 in the solve against the tail
        spec = Spectrum([head] + [1.0] * 6)
        with pytest.raises(WeightsOverflow, match="with the Gaussian draw"):
            unbiased_estimate(spec, k=1, l=2, q=0, n_trials=20, side="left", seed=0)

    @pytest.mark.filterwarnings("error")
    def test_rank_deficient_tail_outranks_an_overflowing_head(self):
        # the tail weights below the first are subnormal, so every weighted
        # tail has rank 1 < l; the head of trial 0 (stream 0 ^ 0) also
        # overflows with its draw
        spec = Spectrum([1.7e308, 1.0] + [1e-320] * 4)
        with np.errstate(over="ignore"):
            assert np.isinf(1.7e308 * gaussian_sketch(6, 2, 0)[0]).any()
        with pytest.raises(TailTooShort, match="^tail too short for estimator$"):
            unbiased_estimate(spec, k=1, l=2, q=0, n_trials=3, side="left", seed=0)


class TestSinesFromNu:
    @pytest.mark.filterwarnings("error")
    def test_sine_past_overflowing_square_is_reciprocal(self):
        assert sines_from_nu(np.array([1e180, np.inf])).tolist() == [1e-180, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.3407807929942596e154), min_size=1, max_size=5))
    @example([0.0, 5e-324, 1.0, 1e154, 1.3407807929942596e154])
    def test_finite_squares_keep_their_bits(self, nu):
        nu = np.array(nu)
        assert sines_from_nu(nu).tobytes() == (1.0 / np.sqrt(1.0 + nu**2)).tobytes()


class TestReportStructure:
    def _report(self, n_trials=8, seed=3):
        spec = Spectrum(np.geomspace(4.0, 0.2, 60))
        return unbiased_estimate(spec, k=5, l=12, q=1, n_trials=n_trials,
                                 side="left", seed=seed)

    def test_values_in_unit_interval_and_ascending(self):
        rep = self._report()
        assert (rep.per_trial > 0.0).all() and (rep.per_trial <= 1.0).all()
        assert (np.diff(rep.mean) >= -1e-12).all()

    def test_band_ordering(self):
        rep = self._report()
        assert (rep.min_band <= rep.mean + 1e-15).all()
        assert (rep.mean <= rep.max_band + 1e-15).all()
        assert np.allclose(rep.mean, rep.per_trial.mean(axis=0))

    def test_determinism_and_trial_order_independence(self):
        a = self._report(n_trials=6, seed=11)
        b = self._report(n_trials=6, seed=11)
        assert np.array_equal(a.per_trial, b.per_trial)
        # trial j is keyed by seed ^ j, so a single-trial run reproduces row j
        for j in (0, 3, 5):
            single = self._report(n_trials=1, seed=11 ^ j)
            assert np.array_equal(single.per_trial[0], a.per_trial[j])


class TestSharedTrials:
    # 77 trials end in a partial block; 30 are two blocks, fewer than 3 workers
    @pytest.mark.parametrize("n_trials", [1, 30, 77])
    def test_report_does_not_depend_on_workers(self, monkeypatch, n_trials):
        assert TRIAL_BLOCK == 25
        spec = Spectrum(np.geomspace(4.0, 0.2, 60))
        one = unbiased_estimate(spec, 5, 12, 1, n_trials, "left", 3)
        for n in (2, 3):
            monkeypatch.setattr(workers, "_usable_workers", lambda: n)
            rep = unbiased_estimate(spec, 5, 12, 1, n_trials, "left", 3, jobs=n)
            assert rep.per_trial.shape == (n_trials, 5)
            for field in ("per_trial", "mean", "min_band", "max_band"):
                assert np.array_equal(getattr(rep, field), getattr(one, field))


class TestWeightings:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_weighting_is_its_own_estimator_call(self, monkeypatch, jobs):
        monkeypatch.setattr(workers, "_usable_workers", lambda: 2)
        ok = Spectrum(np.geomspace(4.0, 0.2, 30))
        # finite weights that overflow with a draw, as in TestGuards
        overflow = Spectrum([1.7e308] + [1.0] * 6)
        short = Spectrum(np.geomspace(2.0, 0.5, 3))
        weightings = [(ok, "left"), (overflow, "left"), (short, "right"), (ok, "right")]
        outcomes = estimate_weightings(weightings, 1, 3, 0, 60, 5, jobs)
        assert isinstance(outcomes[1], WeightsOverflow)
        assert str(outcomes[1]).endswith("with the Gaussian draw: top weight 1.7e+308")
        assert isinstance(outcomes[2], TailTooShort)
        for (spec, side), rep in zip(weightings[::3], outcomes[::3]):
            one = unbiased_estimate(spec, 1, 3, 0, 60, side, 5)
            assert rep.per_trial.tobytes() == one.per_trial.tobytes()
            assert rep.mean.tobytes() == one.mean.tobytes()

    def test_a_share_draws_into_one_buffer(self, monkeypatch):
        # every trial and weighting of one worker's share reuses one draw
        # buffer and one workspace; the weighting of lower rank reads their
        # leading rows, and each trial's sines are those of fresh arrays
        drawn_into, lent = [], []
        draw, pinv = estimator.gaussian_sketch, estimator.sv_x_pinv
        monkeypatch.setattr(estimator, "gaussian_sketch", lambda n, l, seed, out=None:
                            drawn_into.append(out) or draw(n, l, seed, out=out))
        monkeypatch.setattr(estimator, "sv_x_pinv", lambda x, y, work=None:
                            lent.append(work) or pinv(x, y, work=work))
        k, l, q, n_trials, seed = 2, 4, 1, 2 * TRIAL_BLOCK + 1, 7
        weightings = [(Spectrum(np.geomspace(4.0, 0.2, 30)), "left"),
                      (Spectrum(np.geomspace(3.0, 0.1, 12)), "right")]
        outcomes = estimate_weightings(weightings, k, l, q, n_trials, seed)
        assert len(drawn_into) == n_trials and drawn_into[0] is not None
        assert all(out is drawn_into[0] for out in drawn_into)
        assert len(lent) == 2 * n_trials and lent[0].base is not None
        assert all(work.base is lent[0].base for work in lent)
        for (spec, side), rep in zip(weightings, outcomes):
            r, top_w, tail_w = estimator._weights(spec, k, l, q, side)
            for j in range(n_trials):
                omega = draw(r, l, seed ^ j)
                nu = pinv(top_w[:, None] * omega[:k], tail_w[:, None] * omega[k:])
                assert sines_from_nu(nu).tobytes() == rep.per_trial[j].tobytes()


class TestSpaceAgnosticism:
    def test_identical_spectra_give_bitwise_identical_reports(self):
        vals = np.geomspace(3.0, 0.4, 50)
        a = unbiased_estimate(Spectrum(vals), 4, 10, 1, 5, "left", 9)
        b = unbiased_estimate(Spectrum(vals.copy()), 4, 10, 1, 5, "left", 9)
        assert np.array_equal(a.per_trial, b.per_trial)
        assert np.array_equal(a.mean, b.mean)


class TestStatisticalBehavior:
    def test_two_independent_runs_agree_within_noise(self):
        # flat-top-block symmetry makes per-index distributions identical
        # across runs; check Monte-Carlo consistency at 3 combined standard
        # errors per index
        spec = gen_step_spectrum(5, 40.0, 1.3)
        a = unbiased_estimate(spec, 5, 20, 0, 200, "left", seed=101)
        b = unbiased_estimate(spec, 5, 20, 0, 200, "left", seed=707)
        se = np.sqrt(a.per_trial.var(axis=0, ddof=1) / 200
                     + b.per_trial.var(axis=0, ddof=1) / 200)
        assert (np.abs(a.mean - b.mean) <= 3.0 * se).all()

    def test_right_side_sees_more_effective_powers(self):
        spec = Spectrum(np.geomspace(4.0, 0.05, 80))
        left = unbiased_estimate(spec, 4, 12, 0, 50, "left", seed=2)
        right = unbiased_estimate(spec, 4, 12, 0, 50, "right", seed=2)
        assert (right.mean <= left.mean).all()

    @pytest.mark.slow
    def test_mean_lies_between_prior_bounds_on_step_spectrum(self):
        k, l, q = 25, 100, 0
        spec = gen_step_spectrum(k, 20.0, 1.2)
        up = space_agnostic_upper(spec, k, l, q, "left", c=1.0)
        lo = space_agnostic_lower(spec, k, l, q, "left", c=2.0)
        inside = total = 0
        for seed in range(20):
            # the trials of one call are shared by up to 2 workers
            est = unbiased_estimate(spec, k, l, q, 200, "left", seed, jobs=2)
            inside += int(((est.mean >= lo.values) & (est.mean <= up.values)).sum())
            total += k
        assert inside / total >= 0.95


class TestCostModel:
    def test_nominal_count(self):
        assert estimate_cost_model(100, 10, 3) == 30000

    def test_quadratic_in_sample_size(self):
        assert estimate_cost_model(64, 24, 5) == 4 * estimate_cost_model(64, 12, 5)
