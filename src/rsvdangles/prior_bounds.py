"""Prior (a priori) canonical-angle bounds that need only the spectrum.

The space-agnostic bounds depend on the singular values of the target
matrix, the sketch width l, the power count q, and two distortion factors

    head distortion = c1 * sqrt(k / l)
    tail distortion = c2 * sqrt(l / (r - k))    (or sqrt(l / tail_spread))

For the left singular subspace the spectrum enters with exponent 4q + 2; the
right subspace sees one extra half power iteration, exponent 4q + 4. All
power sums are evaluated in the log domain so exponents up to 4*10 + 4
neither overflow nor flush to zero.

The comparator bound (``subspace_aware_upper``) needs the projections of the
sketch onto the true right singular subspace, so it only applies to matrices
whose factors are known; ``subspace_aware_envelope`` supplies a fully prior
probabilistic stand-in for the projected-sketch norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .linalg import Spectrum, as_matrix

_SIDES = ("left", "right")


@dataclass
class BoundReport:
    """Per-index bound or estimate values in ascending-angle order.

    ``values`` are clamped to [0, 1]; when clamping fired, ``params`` keeps
    the raw vector under "raw_values" and sets "trivial" for bounds that
    exceeded 1 (vacuous for sines).
    """

    values: np.ndarray
    kind: str
    side: str
    spectrum_source: str = "true"
    params: dict = field(default_factory=dict)


def make_report(raw, kind: str, side: str, params: dict | None = None,
                spectrum_source: str = "true") -> BoundReport:
    raw = np.asarray(raw, dtype=np.float64)
    params = dict(params or {})
    clipped = np.clip(raw, 0.0, 1.0)
    if (raw != clipped).any():
        params["raw_values"] = raw
        params["trivial"] = bool((raw > 1.0).any())
    return BoundReport(clipped, kind, side, spectrum_source, params)


@dataclass(frozen=True)
class DistortionParams:
    """Multipliers for the two distortion factors of the space-agnostic bounds.

    ``tail_mode`` selects the denominator inside the tail distortion:
    "count" uses r - k (the practical recipe, ignoring tail decay), "spread"
    uses the effective tail rank from :func:`tail_spread`.
    """

    c1: float = 1.0
    c2: float = 1.0
    tail_mode: str = "count"

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("distortion multipliers must be positive")
        if self.tail_mode not in ("count", "spread"):
            raise ValueError("tail_mode must be 'count' or 'spread'")

    def head(self, k: int, l: int) -> float:
        return self.c1 * math.sqrt(k / l)

    def tail(self, spectrum: Spectrum, k: int, l: int, q: int) -> float:
        if self.tail_mode == "spread":
            denom = tail_spread(spectrum, k, q)
        else:
            denom = spectrum.declared_rank - k
        return self.c2 * math.sqrt(l / denom)


def power_exponent(q, side: str) -> float:
    """Spectrum exponent for a given power count and side (left 4q+2, right 4q+4)."""
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}")
    return 4.0 * q + (2.0 if side == "left" else 4.0)


def tail_spread(spectrum: Spectrum, k: int, q: int) -> float:
    """Effective rank of the tail: (sum sigma^(4q+2))^2 / sum sigma^(2(4q+2)).

    Lies in [1, r - k]; equals r - k exactly for a flat tail and approaches 1
    when one tail value dominates. Computed in the log domain.
    """
    t = spectrum.tail(k)
    if t.size == 0:
        raise ValueError("empty tail")
    p = 4.0 * q + 2.0
    logs = np.log(t)
    return float(np.exp(2.0 * logsumexp(p * logs) - logsumexp(2.0 * p * logs)))


def _bound_values(spectrum: Spectrum, k: int, l: int, p: float, mult: float) -> np.ndarray:
    """(1 + mult * l * sigma_i^p / sum_tail sigma^p)^(-1/2) for i = 1..k,
    ascending-angle order (position i pairs with sigma_i)."""
    t = spectrum.tail(k)
    if t.size == 0:
        raise ValueError("empty tail")
    log_tail = logsumexp(p * np.log(t))
    top = np.log(spectrum.values[:k])
    term = math.log(mult) + math.log(l) + p * top - log_tail
    return np.exp(-0.5 * np.logaddexp(0.0, term))


def _check_bound_args(spectrum: Spectrum, k: int, l: int, q: int) -> None:
    if not 1 <= k < spectrum.declared_rank:
        raise ValueError("need 1 <= k < declared rank")
    if l <= k:
        raise ValueError("need l > k")
    if q < 0:
        raise ValueError("q must be >= 0")


def space_agnostic_upper(spectrum: Spectrum, k: int, l: int, q: int, side: str,
                         dp: DistortionParams | None = None) -> BoundReport:
    """Spectrum-only upper bound on the sines of the canonical angles.

    Multiplier (1 - head) / (1 + tail) on l * sigma_i^p / sum_tail sigma^p.
    Requires head distortion < 1; the tail distortion may exceed 1 (it only
    weakens the bound).
    """
    dp = dp or DistortionParams()
    _check_bound_args(spectrum, k, l, q)
    eps_head = dp.head(k, l)
    eps_tail = dp.tail(spectrum, k, l, q)
    if eps_head >= 1.0:
        raise ValueError("head distortion out of range (need c1 * sqrt(k/l) < 1)")
    p = power_exponent(q, side)
    mult = (1.0 - eps_head) / (1.0 + eps_tail)
    vals = _bound_values(spectrum, k, l, p, mult)
    params = {"head_distortion": eps_head, "tail_distortion": eps_tail,
              "multiplier": mult, "exponent": p, "c1": dp.c1, "c2": dp.c2}
    return make_report(vals, "space_agnostic_upper", side, params)


def space_agnostic_lower(spectrum: Spectrum, k: int, l: int, q: int, side: str,
                         dp: DistortionParams | None = None) -> BoundReport:
    """Spectrum-only lower bound, multiplier (1 + head) / |1 - tail|.

    Defaults to doubled distortion multipliers (c1 = c2 = 2), matching the
    aggressive-oversampling validation protocol. A tail distortion of exactly
    1 makes the multiplier singular and raises ValueError("insufficient
    tail"); beyond 1 the concentration argument degrades and the reflected
    denominator |1 - tail| keeps the bound finite and conservative.
    """
    dp = dp or DistortionParams(c1=2.0, c2=2.0)
    _check_bound_args(spectrum, k, l, q)
    eps_head = dp.head(k, l)
    eps_tail = dp.tail(spectrum, k, l, q)
    denom = abs(1.0 - eps_tail)
    if denom < 1e-12:
        raise ValueError("insufficient tail")
    p = power_exponent(q, side)
    mult = (1.0 + eps_head) / denom
    vals = _bound_values(spectrum, k, l, p, mult)
    params = {"head_distortion": eps_head, "tail_distortion": eps_tail,
              "multiplier": mult, "exponent": p, "c1": dp.c1, "c2": dp.c2,
              "tail_reflected": eps_tail > 1.0}
    return make_report(vals, "space_agnostic_lower", side, params)


def subspace_aware_upper(spectrum: Spectrum, omega1, omega2, k: int, q: int,
                         side: str) -> BoundReport:
    """Comparator upper bound driven by the projected-sketch norm ratio.

    ``omega1`` and ``omega2`` are the sketch projected onto the top-k and
    tail right singular subspaces (shapes k-by-l and (r-k)-by-l), so this
    bound only runs on matrices with known factors. Per index:
    (1 + sigma_i^p / (sigma_{k+1}^p * ||omega2 @ pinv(omega1)||^2))^(-1/2).
    """
    _check_bound_args(spectrum, k, k + 1, q)
    omega1 = as_matrix(omega1, "omega1")
    omega2 = as_matrix(omega2, "omega2")
    r = spectrum.declared_rank
    if omega1.shape[0] != k or omega2.shape[0] != r - k or omega1.shape[1] != omega2.shape[1]:
        raise ValueError("projected sketch shapes must be k-by-l and (r-k)-by-l")
    # pinv through the SVD of omega1; right orthonormal factor drops from the norm
    _, sv1, vh1 = np.linalg.svd(omega1, full_matrices=False)
    if sv1[-1] <= 1e-12 * sv1[0]:
        raise ValueError("projected sketch omega1 is rank deficient")
    ratio = np.linalg.norm((omega2 @ vh1.T) / sv1, 2)
    p = power_exponent(q, side)
    logsig = np.log(spectrum.values[:k])
    log_next = math.log(spectrum.values[k])
    if ratio == 0.0:
        vals = np.zeros(k)
    else:
        term = p * (logsig - log_next) - 2.0 * math.log(ratio)
        vals = np.exp(-0.5 * np.logaddexp(0.0, term))
    params = {"sketch_ratio": float(ratio), "exponent": p}
    return make_report(vals, "subspace_aware_upper", side, params)


def subspace_aware_envelope(k: int, l: int, n: int, delta: float) -> float:
    """High-probability envelope for the projected-sketch norm ratio.

    With probability at least 1 - delta the ratio is at most
    e*sqrt(l)/(l-k+1) * (2/delta)^(1/(l-k+1)) * (sqrt(n-k) + sqrt(l) +
    sqrt(2*log(2/delta))). Requires l >= k + 2.
    """
    if l < k + 2:
        raise ValueError("envelope requires l >= k + 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    lead = math.e * math.sqrt(l) / (l - k + 1)
    amp = (2.0 / delta) ** (1.0 / (l - k + 1))
    body = math.sqrt(n - k) + math.sqrt(l) + math.sqrt(2.0 * math.log(2.0 / delta))
    return lead * amp * body
