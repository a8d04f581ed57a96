"""Unbiased Monte-Carlo canonical-angle estimates from the spectrum alone.

Each trial draws a fresh r-by-l Gaussian sketch, weights its top-k and tail
row blocks by sigma^p (p = 2q+1 for the left subspace, 2q+2 for the right),
and reads the angles off the singular values nu of
weighted_top @ pinv(weighted_tail):

    theta_i = 1 / sqrt(1 + nu_i^2)

Large nu means a well-captured direction and a small angle, so the numpy
descending nu order already yields ascending-angle theta vectors. Trial j
uses the stream keyed by ``seed ^ j``, making trials order-independent and
safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, sv_x_pinv
from .prior_bounds import power_exponent
from .rsvd import gaussian_sketch


@dataclass
class EstimateReport:
    """Monte-Carlo mean with per-trial values and min/max bands, all in
    ascending-angle order."""

    mean: np.ndarray
    per_trial: np.ndarray
    min_band: np.ndarray
    max_band: np.ndarray
    n_trials: int


def unbiased_estimate(spectrum: Spectrum, k: int, l: int, q: int,
                      n_trials: int, side: str, seed: int) -> EstimateReport:
    """Estimate the expected canonical sines for a rank-l randomized SVD.

    Space-agnostic: depends only on (spectrum, k, l, q, side, seed,
    n_trials). Requires r - k >= l so the weighted tail block has full
    column rank; otherwise raises ValueError("tail too short for estimator").
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    r = spectrum.declared_rank
    if r - k < l:
        raise ValueError("tail too short for estimator")
    p = power_exponent(q, side) / 2.0  # 2q+1 left, 2q+2 right
    # normalize by sigma_{k+1}: the nu values are scale invariant and the
    # normalized powers stay inside double-precision range for q <= 10
    scale = spectrum.values[k]
    top_w = (spectrum.values[:k] / scale) ** p
    tail_w = (spectrum.tail(k) / scale) ** p
    per_trial = np.empty((n_trials, k))
    for j in range(n_trials):
        omega = gaussian_sketch(r, l, seed ^ j)
        w1 = top_w[:, None] * omega[:k]
        w2 = tail_w[:, None] * omega[k:]
        try:
            nu = sv_x_pinv(w1, w2)
        except ValueError:
            raise ValueError("tail too short for estimator") from None
        per_trial[j] = 1.0 / np.sqrt(1.0 + nu**2)
    mean = per_trial.mean(axis=0)
    return EstimateReport(
        mean=mean,
        per_trial=per_trial,
        min_band=per_trial.min(axis=0),
        max_band=per_trial.max(axis=0),
        n_trials=n_trials,
    )


def estimate_cost_model(r: int, l: int, n_trials: int) -> int:
    """Nominal flop count of the estimator: n_trials * r * l^2."""
    return int(n_trials) * int(r) * int(l) * int(l)
