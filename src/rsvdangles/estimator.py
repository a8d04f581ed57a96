"""Unbiased Monte-Carlo canonical-angle estimates from the spectrum alone.

Each trial draws a fresh r-by-l Gaussian sketch, weights its top-k and tail
row blocks by sigma^p (p = 2q+1 for the left subspace, 2q+2 for the right),
and reads the angles off the singular values nu of
weighted_top @ pinv(weighted_tail):

    theta_i = 1 / sqrt(1 + nu_i^2)

Large nu means a well-captured direction and a small angle, so the numpy
descending nu order already yields ascending-angle theta vectors. Trial j
uses the stream keyed by ``seed ^ j``, so the trials are independent: they
run in fixed blocks that forked workers may share (``jobs``) without
changing a bit of the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, sv_x_pinv
from .prior_bounds import TailTooShort, WeightsOverflow, power_exponent
from .rsvd import gaussian_sketch
from .workers import _share


@dataclass
class EstimateReport:
    """Monte-Carlo mean with per-trial values and min/max bands, all in
    ascending-angle order."""

    mean: np.ndarray
    per_trial: np.ndarray
    min_band: np.ndarray
    max_band: np.ndarray
    n_trials: int


# Trials per shared task. The count is fixed, so the blocks do not depend on
# the worker count; a block rather than a trial per task saves a task's
# overhead and a pickled result per trial.
TRIAL_BLOCK = 25


def unbiased_estimate(spectrum: Spectrum, k: int, l: int, q: int,
                      n_trials: int, side: str, seed: int,
                      jobs: int = 1) -> EstimateReport:
    """Estimate the expected canonical sines for a rank-l randomized SVD.

    Space-agnostic: depends only on (spectrum, k, l, q, side, seed,
    n_trials). Requires r - k >= l so the weighted tail block has full
    column rank; otherwise raises TailTooShort("tail too short for estimator"),
    and WeightsOverflow where the power weights overflow, before any trial,
    or where the weighted head overflows with a trial's draw.
    The trials run in blocks of ``TRIAL_BLOCK``, shared by at most ``jobs``
    workers (see ``workers._share``); the report does not depend on the
    worker count.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    if q < 0:
        raise ValueError("q must be >= 0")
    r = spectrum.declared_rank
    if r - k < l:
        raise TailTooShort("tail too short for estimator")
    p = power_exponent(q, side) / 2.0  # 2q+1 left, 2q+2 right
    # normalize by sigma_{k+1}: the nu values are scale invariant. The top
    # weights still overflow where sigma_1/sigma_{k+1} is large for the
    # power, which is caught here, before any trial
    scale = spectrum.values[k]
    with np.errstate(over="ignore"):
        head = spectrum.values[:k] / scale
        top_w = head ** p
        tail_w = (spectrum.tail(k) / scale) ** p
    if not (np.isfinite(top_w).all() and np.isfinite(tail_w).all()):
        raise WeightsOverflow("power weights overflow double precision:"
                              f" sigma_1/sigma_{k + 1} = {head[0]:.3g} to the power {p:g}")
    blocks = [range(start, min(start + TRIAL_BLOCK, n_trials))
              for start in range(0, n_trials, TRIAL_BLOCK)]
    per_trial = np.concatenate(
        _share(_estimate_block, (r, k, l, seed, top_w, tail_w), blocks, jobs))
    mean = per_trial.mean(axis=0)
    return EstimateReport(
        mean=mean,
        per_trial=per_trial,
        min_band=per_trial.min(axis=0),
        max_band=per_trial.max(axis=0),
        n_trials=n_trials,
    )


def _estimate_block(r: int, k: int, l: int, seed: int, top_w: np.ndarray,
                    tail_w: np.ndarray, trials: range) -> np.ndarray:
    """The sines of trials ``trials``, one row per trial."""
    out = np.empty((len(trials), k))
    for row, j in enumerate(trials):
        omega = gaussian_sketch(r, l, seed ^ j)
        with np.errstate(over="ignore"):
            w1 = top_w[:, None] * omega[:k]
        w2 = tail_w[:, None] * omega[k:]
        try:
            nu = sv_x_pinv(w1, w2)
        except ValueError:
            # either the tail is rank deficient, or the finite head weights
            # overflow with the draw, in w1 or in the solve; the unweighted
            # head (entries of a Gaussian draw) cannot overflow there
            try:
                sv_x_pinv(omega[:k], w2)
            except ValueError:
                raise TailTooShort("tail too short for estimator") from None
            raise WeightsOverflow("power weights overflow double precision with the"
                                  f" Gaussian draw: top weight {top_w[0]:.3g}") from None
        out[row] = sines_from_nu(nu)
    return out


def sines_from_nu(nu):
    """The sines 1 / sqrt(1 + nu^2) of singular values nu of
    weighted_top @ pinv(weighted_tail)."""
    # past nu = 1.3e154, nu**2 overflows; there 1/nu is the sine to rounding
    with np.errstate(over="ignore", divide="ignore"):
        nu2 = nu**2
        return np.where(np.isinf(nu2), 1.0 / nu, 1.0 / np.sqrt(1.0 + nu2))


def estimate_cost_model(r: int, l: int, n_trials: int) -> int:
    """Nominal flop count of the estimator: n_trials * r * l^2."""
    return int(n_trials) * int(r) * int(l) * int(l)
