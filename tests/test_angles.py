import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsvdangles.angles import canonical_sines
from rsvdangles.linalg import RankDeficient, ortho, seeded_rng


def test_identical_subspaces_have_zero_angles():
    rng = seeded_rng(1)
    basis = ortho(rng.standard_normal((15, 4)))
    assert np.all(canonical_sines(basis, basis) <= 1e-10)


def test_orthogonal_subspaces():
    big = np.eye(4)[:, :2]
    small = np.eye(4)[:, 2:3]
    assert np.allclose(canonical_sines(big, small), [1.0], atol=1e-14)


def test_planar_rotation():
    t = 0.3
    big = np.array([[1.0], [0.0]])
    small = np.array([[math.cos(t)], [math.sin(t)]])
    assert np.allclose(canonical_sines(big, small), [math.sin(t)], atol=1e-12)


def test_sine_cosine_consistency_on_random_inputs():
    rng = seeded_rng(3)
    big = rng.standard_normal((40, 8))
    small = rng.standard_normal((40, 3))
    s = canonical_sines(big, small)
    # the cosines, largest first, so aligned with the ascending sines
    c = np.linalg.svd(ortho(big).T @ ortho(small), compute_uv=False)
    assert np.allclose(s**2 + c**2, 1.0, atol=1e-8)
    assert (np.diff(s) >= -1e-12).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_angles_depend_only_on_spans(seed):
    rng = seeded_rng(seed)
    d = int(rng.integers(8, 40))
    l = int(rng.integers(2, d // 2 + 1))
    k = int(rng.integers(1, l + 1))
    big = rng.standard_normal((d, l))
    small = rng.standard_normal((d, k))
    # well-conditioned invertible mixing: orthogonal times a bounded diagonal
    def mix(width):
        q = ortho(rng.standard_normal((width, width)))
        return q * rng.uniform(0.5, 2.0, width)
    s0 = canonical_sines(big, small)
    s1 = canonical_sines(big @ mix(l), small @ mix(k))
    assert np.allclose(s0, s1, atol=1e-9)


def test_nested_spans_give_zero_sines():
    rng = seeded_rng(5)
    big = rng.standard_normal((20, 6))
    small = big @ rng.standard_normal((6, 2))
    assert np.all(canonical_sines(big, small) <= 1e-10)


def test_enlarging_big_never_increases_sines():
    rng = seeded_rng(6)
    small = rng.standard_normal((30, 3))
    big = rng.standard_normal((30, 4))
    extra = rng.standard_normal((30, 3))
    s_before = canonical_sines(big, small)
    s_after = canonical_sines(np.hstack([big, extra]), small)
    assert (s_after <= s_before + 1e-10).all()


def test_rank_deficient_input_raises():
    rng = seeded_rng(7)
    col = rng.standard_normal((10, 1))
    degenerate = np.hstack([col, col])
    with pytest.raises(RankDeficient, match="^rank deficient input$"):
        canonical_sines(degenerate, col)
    with pytest.raises(RankDeficient, match="^rank deficient input$"):
        canonical_sines(rng.standard_normal((10, 3)), np.hstack([col, col]))


def test_dimension_checks():
    rng = seeded_rng(8)
    with pytest.raises(ValueError, match="ambient"):
        canonical_sines(rng.standard_normal((5, 2)), rng.standard_normal((6, 2)))
    with pytest.raises(ValueError, match="small cols <= big cols"):
        canonical_sines(rng.standard_normal((9, 2)), rng.standard_normal((9, 4)))
