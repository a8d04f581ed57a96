"""Prior (a priori) canonical-angle bounds that need only the spectrum.

The space-agnostic bounds depend on the singular values of the target
matrix, the sketch width l, the power count q, and one distortion
multiplier c > 0 that scales both distortion factors

    head distortion = c * sqrt(k / l)
    tail distortion = c * sqrt(l / (r - k))

For the left singular subspace the spectrum enters with exponent 4q + 2; the
right subspace sees one extra half power iteration, exponent 4q + 4. All
power sums are evaluated in the log domain so exponents up to 4*10 + 4
neither overflow nor flush to zero.

The comparator bound (``subspace_aware_upper``) is driven by the
projected-sketch norm ratio ||omega2 @ pinv(omega1)||_2. ``sketch_ratio``
computes it from the projections of the sketch onto the true right singular
subspace, so only for matrices whose factors are known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _RANK_TOL, RankDeficient, Spectrum, as_matrix

_SIDES = ("left", "right")


@dataclass
class BoundReport:
    """Per-index bound or estimate values in ascending-angle order.

    ``values`` are clamped to [0, 1]; ``trivial`` marks the indices whose
    unclamped bound exceeded 1 (vacuous for sines).
    """

    values: np.ndarray
    trivial: np.ndarray
    kind: str
    side: str


class BoundFailure(ValueError):
    """A bound family's assumptions fail on this input, or the run's sketch
    collapsed; ``status`` names the failure in the CSV. The subclasses take
    no custom ``__init__``, so they pickle through a worker's reply
    unchanged."""

    status: str


class TailTooShort(BoundFailure):
    """The tail beyond k is too short for the lower bound or the estimator."""

    status = "tail_short"


class GapViolated(BoundFailure):
    """sigma_k does not exceed both sigma_hat_{k+1} and the out-of-basis
    residual norm, as the gap certificates assume."""

    status = "gap_violated"


class WeightsOverflow(BoundFailure):
    """The estimator's power weights overflow double precision."""

    status = "weights_overflow"


class SketchCollapsed(BoundFailure):
    """The randomized SVD's sketch lost rank in its power iteration, so the
    run has no basis to bound."""

    status = "sketch_collapsed"


def make_report(raw, kind: str, side: str) -> BoundReport:
    raw = np.asarray(raw, dtype=np.float64)
    return BoundReport(np.clip(raw, 0.0, 1.0), raw > 1.0, kind, side)


def power_exponent(q, side: str) -> float:
    """Spectrum exponent for a given power count and side (left 4q+2, right 4q+4)."""
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}")
    return 4.0 * q + (2.0 if side == "left" else 4.0)


def _logsumexp(x: np.ndarray) -> np.float64:
    """log(sum(exp(x))) for a nonempty 1-d array, as scipy.special.logsumexp
    computes it: the entries tied with the largest one, ``top``, leave the
    sum (set to -inf in place, so the summation order is unchanged) and come
    back as log1p(rest / ties) + log(ties) + top."""
    top = x.max()
    ties = x == top
    n_ties = np.float64(np.count_nonzero(ties))
    rest = np.sum(np.exp(np.where(ties, -np.inf, x) - top)) / n_ties
    return np.log1p(rest) + np.log(n_ties) + top


def _bound_values(spectrum: Spectrum, k: int, l: float, p: float, mult: float) -> np.ndarray:
    """(1 + mult * l * sigma_i^p / sum_tail sigma^p)^(-1/2) for i = 1..k,
    ascending-angle order (position i pairs with sigma_i)."""
    log_tail = _logsumexp(p * np.log(spectrum.tail(k)))
    top = np.log(spectrum.values[:k])
    term = math.log(mult) + math.log(l) + p * top - log_tail
    return np.exp(-0.5 * np.logaddexp(0.0, term))


def _check_bound_args(spectrum: Spectrum, k: int, l: float, q: int) -> None:
    if not 1 <= k < spectrum.declared_rank:
        raise ValueError("need 1 <= k < declared rank")
    if l <= k:
        raise ValueError("need l > k")
    if q < 0:
        raise ValueError("q must be >= 0")


def _distortions(spectrum: Spectrum, k: int, l: float, c: float) -> tuple[float, float]:
    """(head, tail) distortion factors c*sqrt(k/l) and c*sqrt(l/(r-k))."""
    if c <= 0:
        raise ValueError("distortion multiplier must be positive")
    return c * math.sqrt(k / l), c * math.sqrt(l / (spectrum.declared_rank - k))


def space_agnostic_upper(spectrum: Spectrum, k: int, l: float, q: int, side: str, *,
                         c: float = 1.0) -> BoundReport:
    """Spectrum-only upper bound on the sines of the canonical angles.

    Multiplier (1 - head) / (1 + tail) on l * sigma_i^p / sum_tail sigma^p.
    Requires head distortion < 1; the tail distortion may exceed 1 (it only
    weakens the bound). The sample size l may be real, as in the budget
    curve's l = budget / (2q+1).
    """
    _check_bound_args(spectrum, k, l, q)
    eps_head, eps_tail = _distortions(spectrum, k, l, c)
    if eps_head >= 1.0:
        raise ValueError("head distortion out of range (need c * sqrt(k/l) < 1)")
    p = power_exponent(q, side)
    mult = (1.0 - eps_head) / (1.0 + eps_tail)
    return make_report(_bound_values(spectrum, k, l, p, mult), "space_agnostic_upper", side)


def space_agnostic_lower(spectrum: Spectrum, k: int, l: int, q: int, side: str, *,
                         c: float = 2.0) -> BoundReport:
    """Spectrum-only lower bound, multiplier (1 + head) / |1 - tail|.

    Defaults to the doubled distortion multiplier c = 2, matching the
    aggressive-oversampling validation protocol. A tail distortion of exactly
    1 makes the multiplier singular and raises TailTooShort("insufficient
    tail"); beyond 1 the concentration argument degrades and the reflected
    denominator |1 - tail| keeps the bound finite and conservative.
    """
    _check_bound_args(spectrum, k, l, q)
    eps_head, eps_tail = _distortions(spectrum, k, l, c)
    denom = abs(1.0 - eps_tail)
    if denom < 1e-12:
        raise TailTooShort("insufficient tail")
    p = power_exponent(q, side)
    mult = (1.0 + eps_head) / denom
    return make_report(_bound_values(spectrum, k, l, p, mult), "space_agnostic_lower", side)


def sketch_ratio(omega1, omega2) -> float:
    """Projected-sketch norm ratio ||omega2 @ pinv(omega1)||_2.

    ``omega1`` and ``omega2`` are the sketch projected onto the top-k and
    tail right singular subspaces (shapes k-by-l and (r-k)-by-l). Raises
    RankDeficient where omega1 lacks full row rank.
    """
    omega1 = as_matrix(omega1, "omega1")
    omega2 = as_matrix(omega2, "omega2")
    if omega1.shape[1] != omega2.shape[1]:
        raise ValueError("projected sketch blocks must have the same column count")
    # pinv through the SVD of omega1; right orthonormal factor drops from the norm
    _, sv1, vh1 = np.linalg.svd(omega1, full_matrices=False)
    if sv1[-1] <= _RANK_TOL * sv1[0]:
        raise RankDeficient("projected sketch omega1 is rank deficient")
    return float(np.linalg.norm((omega2 @ vh1.T) / sv1, 2))


def subspace_aware_upper(spectrum: Spectrum, ratio: float, k: int, q: int,
                         side: str) -> BoundReport:
    """Comparator upper bound driven by the projected-sketch norm ratio.

    ``ratio`` is ``sketch_ratio`` of the realized sketch, which needs the
    true factors. Per index:
    (1 + sigma_i^p / (sigma_{k+1}^p * ratio^2))^(-1/2).
    """
    _check_bound_args(spectrum, k, k + 1, q)
    p = power_exponent(q, side)
    logsig = np.log(spectrum.values[:k])
    log_next = math.log(spectrum.values[k])
    if ratio == 0.0:
        vals = np.zeros(k)
    else:
        term = p * (logsig - log_next) - 2.0 * math.log(ratio)
        vals = np.exp(-0.5 * np.logaddexp(0.0, term))
    return make_report(vals, "subspace_aware_upper", side)
