"""Unbiased Monte-Carlo canonical-angle estimates from the spectrum alone.

Each trial draws a fresh r-by-l Gaussian sketch, weights its top-k and tail
row blocks by sigma^p (p = 2q+1 for the left subspace, 2q+2 for the right),
and reads the angles off the singular values nu of
weighted_top @ pinv(weighted_tail):

    theta_i = 1 / sqrt(1 + nu_i^2)

Large nu means a well-captured direction and a small angle, so the numpy
descending nu order already yields ascending-angle theta vectors. Trial j
uses the stream keyed by ``seed ^ j``, distinct within one call: the trials
run in fixed blocks that forked workers may share (``jobs``) without
changing a bit of the report. Across calls the streams repeat: trial j of
seed s is trial 0 of seed s ^ j, so seeds 0 and 1 at 3 trials share 2 of 3
per-trial sine vectors bit for bit, and seeds 0-9 draw 12 streams, not 30.
Nor is trial 0 independent of a sweep run's own sketch: ``rsvd`` there draws
``gaussian_sketch(n, l, seed)``, the stream fills row-major, so trial 0's
r-by-l draw is the first r rows of that sketch bit for bit. A new stream key
would redraw every ``estimate`` row, so it waits for a new benchmark reference.
One draw per trial serves several (spectrum, side) weightings at once
(``estimate_weightings``), as a sweep run needs.

The trials allocate nothing of size r-by-l: the draw and the weighted tail,
which ``sv_x_pinv`` scales in place, go into two buffers that each worker
holds for the whole call. Arrays of that size lie above glibc's mmap
threshold, so allocated per trial they were mapped and faulted in again
every trial: the benchmark's seed-0 ``estimate`` command (r = 525, l = 100,
400 trials) took 68.2k minor page faults that way, and takes 11.6k with the
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RankDeficient, Spectrum, sv_x_pinv
from .prior_bounds import (BoundFailure, TailTooShort, WeightsOverflow,
                           power_exponent)
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
    This is the one-weighting case of ``estimate_weightings``: the trials
    run in blocks of ``TRIAL_BLOCK``, shared by at most ``jobs`` workers
    (see ``workers._share``), and the report does not depend on the worker
    count.
    """
    [outcome] = estimate_weightings([(spectrum, side)], k, l, q, n_trials, seed, jobs)
    if isinstance(outcome, BoundFailure):
        raise outcome
    return outcome


def estimate_weightings(weightings: list, k: int, l: int, q: int, n_trials: int,
                        seed: int, jobs: int = 1) -> list:
    """``unbiased_estimate`` for each (spectrum, side) pair of ``weightings``,
    on one Gaussian draw per trial.

    Returns one outcome per pair, in order: its EstimateReport, or the
    BoundFailure that ``unbiased_estimate`` would raise for it. Trial j
    draws gaussian_sketch(r, l, seed ^ j) once, at the largest declared
    rank r among the pairs that pass the checks before any trial. The
    stream fills row-major, so the first r' rows of that draw are, bit for
    bit, the draw at rank r', and a pair of rank r' reads those: every
    report equals its own ``unbiased_estimate`` call bit for bit. A pair
    whose trial fails keeps the failure of its first failing trial in
    trial order, whatever the worker count; the other pairs go on.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    if q < 0:
        raise ValueError("q must be >= 0")
    weights = []
    for spectrum, side in weightings:
        try:
            weights.append(_weights(spectrum, k, l, q, side))
        except BoundFailure as exc:
            weights.append(exc)
    ranks = [w[0] for w in weights if not isinstance(w, BoundFailure)]
    if not ranks:
        return weights
    blocks = [range(start, min(start + TRIAL_BLOCK, n_trials))
              for start in range(0, n_trials, TRIAL_BLOCK)]
    r = max(ranks)
    # the draw and the weighted tail, which sv_x_pinv scales in place, reused
    # by every trial of a worker's share; a forked worker writes its own copy
    buffers = (np.empty((r, l)), np.empty((r - k, l)))
    results = _share(_estimate_block, (r, k, l, seed, weights, buffers), blocks, jobs)
    outcomes = []
    for parts in zip(*results):  # the blocks of one pair, in trial order
        failures = [part for part in parts if isinstance(part, BoundFailure)]
        if failures:
            outcomes.append(failures[0])
            continue
        per_trial = np.concatenate(parts)
        outcomes.append(EstimateReport(
            mean=per_trial.mean(axis=0),
            per_trial=per_trial,
            min_band=per_trial.min(axis=0),
            max_band=per_trial.max(axis=0),
            n_trials=n_trials,
        ))
    return outcomes


def _weights(spectrum: Spectrum, k: int, l: int, q: int, side: str) -> tuple:
    """(declared rank, top weights, tail weights) of one (spectrum, side)
    pair; raises the BoundFailure that stops it before any trial."""
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
    return r, top_w, tail_w


def _estimate_block(r: int, k: int, l: int, seed: int, weights: list,
                    buffers: tuple, trials: range) -> list:
    """Per (rank, top weights, tail weights) triple of ``weights``, the
    sines of trials ``trials``, one row per trial, or the BoundFailure of
    its first failing trial among them; a BoundFailure in ``weights`` is
    passed through. Each trial draws one r-by-l Gaussian into the first of
    ``buffers`` (r-by-l, then (r - k)-by-l), and a triple of rank r' weights
    its first r' rows into the leading r' - k rows of the second, in place.
    A trial fails as TailTooShort where its weighted tail is rank deficient,
    even if its head overflows too, and as WeightsOverflow where the finite
    head weights overflow with the draw."""
    omega, tail = buffers
    out = [w if isinstance(w, BoundFailure) else np.empty((len(trials), k))
           for w in weights]
    for row, j in enumerate(trials):
        gaussian_sketch(r, l, seed ^ j, out=omega)
        for w, weight in enumerate(weights):
            if isinstance(out[w], BoundFailure):
                continue
            rank, top_w, tail_w = weight
            with np.errstate(over="ignore"):
                w1 = top_w[:, None] * omega[:k]
            w2 = np.multiply(tail_w[:, None], omega[k:rank], out=tail[:rank - k])
            try:
                nu = sv_x_pinv(w1, w2, work=w2)
            except RankDeficient:
                out[w] = TailTooShort("tail too short for estimator")
                continue
            except ValueError:
                out[w] = WeightsOverflow("power weights overflow double precision with the"
                                         f" Gaussian draw: top weight {top_w[0]:.3g}")
                continue
            out[w][row] = sines_from_nu(nu)
    return out


def sines_from_nu(nu):
    """The sines 1 / sqrt(1 + nu^2) of singular values nu of
    weighted_top @ pinv(weighted_tail)."""
    # past nu = 1.3e154, nu**2 overflows; there 1/nu is the sine to rounding
    with np.errstate(over="ignore", divide="ignore"):
        nu2 = nu**2
        return np.where(np.isinf(nu2), 1.0 / nu, 1.0 / np.sqrt(1.0 + nu2))


def estimate_cost_model(r: int, l: int, n_trials: int) -> int:
    """Nominal flop count of the estimator: n_trials * r * l^2, the order of
    each trial's Gram product of its weighted tail. It leaves out the
    r-by-l Gaussian draw: O(r l) per trial, but the larger share of a
    trial's time at the sample sizes in use, so wall time grows more slowly
    in l than this count."""
    return int(n_trials) * int(r) * int(l) * int(l)
