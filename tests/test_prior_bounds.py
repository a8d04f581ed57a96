import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsvdangles.linalg import RankDeficient, Spectrum, seeded_rng
from rsvdangles.matgen import gen_step_spectrum
from rsvdangles.prior_bounds import (BoundFailure, GapViolated, SketchCollapsed,
                                     TailTooShort, WeightsOverflow, make_report,
                                     power_exponent, sketch_ratio,
                                     space_agnostic_lower,
                                     space_agnostic_upper,
                                     subspace_aware_upper, _bound_values,
                                     _distortions, _logsumexp)


class TestLogSumExp:
    def test_exact_values(self):
        for n in (1, 2, 7, 1000):
            assert _logsumexp(np.zeros(n)) == np.log(n)
        assert _logsumexp(np.array([1000.0, 1000.0])) == 1000.0 + np.log(2.0)

    def test_matches_scipy_bit_for_bit(self):
        special = pytest.importorskip("scipy.special")
        # spectrum tails raised to the bound exponents 4q+2 and 4q+4 (up to 44)
        powered = st.tuples(
            st.integers(0, 10), st.booleans(),
            st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=300),
        ).map(lambda t: [(4 * t[0] + (4 if t[1] else 2)) * math.log(v) for v in t[2]])
        ties = st.lists(st.sampled_from([-2.5, 0.0, 1.0 / 3.0, 44.0]),
                        min_size=1, max_size=600)
        anything = st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=300)

        @settings(max_examples=300, deadline=None)
        @given(st.one_of(powered, ties, anything))
        def check(xs):
            x = np.array(xs)
            assert (np.float64(_logsumexp(x)).tobytes()
                    == np.float64(special.logsumexp(x)).tobytes())

        check()


class TestUpperBound:
    def test_closed_form_hand_value(self):
        # (1 + (1-0.5)/(1+1.0) * (4/4) * 2^2)^(-1/2) = 2^(-1/2)
        spec = Spectrum.from_values([2.0, 1.0, 1.0, 1.0, 1.0])
        rep = space_agnostic_upper(spec, k=1, l=4, q=0, side="left", c=1.0)
        head, tail = _distortions(spec, 1, 4, 1.0)
        assert head == pytest.approx(0.5)
        assert tail == pytest.approx(1.0)
        expect = (1.0 + 0.25 * (4.0 / 4.0) * 4.0) ** -0.5
        assert rep.values[0] == pytest.approx(expect, abs=1e-12)

    def test_direct_formula_cross_check(self):
        # independent dense evaluation of the same expression
        vals = np.array([4.0, 2.5, 1.3, 0.9, 0.7, 0.45, 0.31, 0.2])
        spec = Spectrum.from_values(vals)
        k, l, q = 3, 5, 1
        rep = space_agnostic_upper(spec, k, l, q, "left", c=1.0)
        e1, e2 = math.sqrt(k / l), math.sqrt(l / (8 - k))
        p = 4 * q + 2
        tail = np.sum(vals[k:] ** p)
        expect = (1.0 + (1 - e1) / (1 + e2) * l * vals[:k] ** p / tail) ** -0.5
        assert np.allclose(rep.values, expect, rtol=1e-12)

    def test_growing_gap_drives_bound_to_zero(self):
        prev = 1.0
        for g in (2.0, 8.0, 64.0, 1e4, 1e8):
            spec = Spectrum.from_values([g] + [1.0] * 9)
            val = space_agnostic_upper(spec, 1, 4, 0, "left", c=1.0).values[0]
            assert val < prev
            prev = val
        assert prev <= 1e-7

    def test_non_increasing_in_q_on_step_spectrum(self):
        spec = gen_step_spectrum(10, 32.0, 1.2)
        series = [space_agnostic_upper(spec, 10, 40, q, "left", c=1.0).values
                  for q in range(4)]
        for a, b in zip(series, series[1:]):
            assert (b <= a + 1e-15).all()

    def test_head_distortion_must_stay_below_one(self):
        spec = Spectrum.from_values([2.0] + [1.0] * 9)
        with pytest.raises(ValueError, match="head distortion"):
            space_agnostic_upper(spec, 4, 5, 0, "left", c=2.0)

    def test_values_ascend_with_angle_index(self):
        spec = Spectrum.from_values(np.geomspace(8.0, 0.25, 20))
        rep = space_agnostic_upper(spec, 6, 10, 1, "left", c=1.0)
        assert (np.diff(rep.values) >= -1e-15).all()


class TestLowerBound:
    def test_closed_form_hand_value(self):
        # multiplier (1+0.5)/(1-sqrt(0.5)), spectrum (2, 1*8), k=1, l=4
        spec = Spectrum.from_values([2.0] + [1.0] * 8)
        rep = space_agnostic_lower(spec, 1, 4, 0, "left", c=1.0)
        mult = (1.0 + 0.5) / (1.0 - math.sqrt(4.0 / 8.0))
        expect = (1.0 + mult * (4.0 / 8.0) * 4.0) ** -0.5
        assert rep.values[0] == pytest.approx(expect, abs=1e-12)
        assert rep.values[0] == pytest.approx(0.2982, abs=5e-5)

    def test_tail_distortion_of_exactly_one_is_singular(self):
        spec = Spectrum.from_values([2.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(TailTooShort, match="insufficient tail"):
            space_agnostic_lower(spec, 1, 4, 0, "left", c=1.0)

    def test_reflected_branch_beyond_one_stays_finite(self):
        spec = Spectrum.from_values([2.0] + [1.0] * 8)
        rep = space_agnostic_lower(spec, 1, 4, 0, "left")  # doubled defaults
        _, tail = _distortions(spec, 1, 4, 2.0)
        assert tail == pytest.approx(2 * math.sqrt(0.5))
        assert tail > 1.0  # the reflected denominator |1 - tail| applies
        assert 0.0 < rep.values[0] < 1.0

    def test_lower_below_upper_on_shared_valid_configuration(self):
        spec = Spectrum.from_values(np.geomspace(6.0, 0.5, 40))
        for q in (0, 1):
            up = space_agnostic_upper(spec, 5, 10, q, "left", c=1.0)
            lo = space_agnostic_lower(spec, 5, 10, q, "left", c=1.0)
            assert (lo.values <= up.values).all()

    def test_default_multipliers_are_doubled(self):
        spec = Spectrum.from_values(np.geomspace(6.0, 0.5, 40))
        rep = space_agnostic_lower(spec, 5, 10, 0, "left")
        assert np.array_equal(rep.values,
                              space_agnostic_lower(spec, 5, 10, 0, "left", c=2.0).values)
        assert not np.array_equal(rep.values,
                                  space_agnostic_lower(spec, 5, 10, 0, "left", c=1.0).values)


class TestScalingInvariance:
    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_bounds_invariant_under_uniform_scaling(self, c):
        spec = Spectrum.from_values(np.geomspace(3.0, 0.2, 30))
        scaled = Spectrum(spec.values * c, spec.declared_rank)
        for fn in (space_agnostic_upper, space_agnostic_lower):
            a = fn(spec, 4, 8, 2, "left", c=1.0)
            b = fn(scaled, 4, 8, 2, "left", c=1.0)
            assert np.allclose(a.values, b.values, rtol=1e-12)


class TestExponentRule:
    def test_right_side_equals_left_at_half_extra_power(self):
        assert power_exponent(3, "right") == power_exponent(3.5, "left")
        spec = Spectrum.from_values(np.geomspace(5.0, 0.3, 25))
        k, l, q = 4, 8, 2
        right = space_agnostic_upper(spec, k, l, q, "right", c=1.0)
        head, tail = _distortions(spec, k, l, 1.0)
        mult = (1.0 - head) / (1.0 + tail)
        half_step = _bound_values(spec, k, l, power_exponent(q + 0.5, "left"), mult)
        assert np.allclose(right.values, half_step, rtol=1e-14)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            power_exponent(1, "up")


class TestSubspaceAwareUpper:
    def _spectrum(self):
        return Spectrum.from_values([3.0, 2.0, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5])

    def test_zero_tail_projection_gives_zero_bound(self):
        spec = self._spectrum()
        omega1 = seeded_rng(0).standard_normal((2, 4))
        ratio = sketch_ratio(omega1, np.zeros((6, 4)))
        assert ratio == 0.0
        rep = subspace_aware_upper(spec, ratio, k=2, q=0, side="left")
        assert np.all(rep.values == 0.0)

    def test_matched_levels_give_inverse_sqrt_two(self):
        # sigma_i = sigma_{k+1} and projected-sketch ratio exactly 1
        spec = Spectrum.from_values([1.0, 1.0, 1.0, 0.2])
        omega1 = np.hstack([np.eye(2), np.zeros((2, 2))])
        omega2 = np.zeros((2, 4))
        omega2[0, 0] = 1.0
        ratio = sketch_ratio(omega1, omega2)
        assert ratio == pytest.approx(1.0, abs=1e-12)
        rep = subspace_aware_upper(spec, ratio, k=2, q=0, side="left")
        assert np.allclose(rep.values, 2.0 ** -0.5, atol=1e-12)

    def test_rank_deficient_projection_rejected(self):
        omega1 = np.ones((2, 4))
        omega2 = seeded_rng(1).standard_normal((6, 4))
        with pytest.raises(RankDeficient, match="^projected sketch omega1 is rank deficient$"):
            sketch_ratio(omega1, omega2)

    def test_exact_ratio_against_dense_pinv(self):
        rng = seeded_rng(4)
        spec = self._spectrum()
        omega1 = rng.standard_normal((2, 5))
        omega2 = rng.standard_normal((6, 5))
        ratio = sketch_ratio(omega1, omega2)
        expect_ratio = np.linalg.norm(omega2 @ np.linalg.pinv(omega1), 2)
        assert ratio == pytest.approx(expect_ratio, rel=1e-12)
        rep = subspace_aware_upper(spec, ratio, k=2, q=1, side="right")
        p = 4 * 1 + 4
        expect = (1.0 + (spec.values[:2] / spec.values[2]) ** p / expect_ratio**2) ** -0.5
        assert np.allclose(rep.values, expect, rtol=1e-12)


def test_report_clamping_marks_trivial_indices():
    rep = make_report(np.array([0.5, 1.2]))
    assert np.array_equal(rep.values, [0.5, 1.0])
    assert np.array_equal(rep.trivial, [False, True])


@pytest.mark.parametrize("cls, status", [(TailTooShort, "tail_short"),
                                         (GapViolated, "gap_violated"),
                                         (WeightsOverflow, "weights_overflow"),
                                         (SketchCollapsed, "sketch_collapsed")])
def test_bound_failures_pickle_with_type_status_and_message(cls, status):
    # a failure raised in a forked worker crosses the pool's pipe pickled
    exc = pickle.loads(pickle.dumps(cls("raised in a worker process")))
    assert type(exc) is cls
    assert isinstance(exc, BoundFailure) and isinstance(exc, ValueError)
    assert exc.status == status
    assert str(exc) == "raised in a worker process"
