"""Posterior (a posteriori) deterministic certificates from residual norms.

Two families:

* ratio bounds: per-index min of two residual-spectrum-to-spectrum ratios,
  valid for any orthonormal basis whose range lies inside the column (row)
  space of the matrix;
* gap bounds: bounds driven by the norms of the residual blocks of the
  delivered rank-l approximation together with spectral gaps at index k.

With ``ahat = u * sigma @ v.T`` the three residual ingredients are computed
through the norm identities

    in-basis residual      ||(a - ahat) @ v||
    beyond-k residual      ||(a - ahat) @ v[:, k:]||_2
    out-of-basis residual  ||a - a @ v @ v.T||_2

and the gaps, defined whenever sigma_k exceeds both sigma_hat_{k+1} and the
out-of-basis residual norm, are

    gap_sigma_1 = (sigma_k^2 - sigma_hat_{k+1}^2) / sigma_k
    gap_sigma_2 = (sigma_k^2 - sigma_hat_{k+1}^2) / sigma_hat_{k+1}
    gap_resid_1 = (sigma_k^2 - out^2) / sigma_k
    gap_resid_2 = (sigma_k^2 - out^2) / out

All bound values are emitted in ascending-angle order; per-index variants
carry the factor sigma_k / sigma_i at position i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, as_matrix
from .prior_bounds import BoundReport, make_report
from .rsvd import RsvdOutput


@dataclass(frozen=True)
class ResidualStats:
    """Residual-block norms of a rank-l approximation and sigma_hat_{k+1}."""

    resid_in_basis_2: float
    resid_beyond_k_2: float
    resid_out_of_basis_2: float
    sigma_hat_next: float


def residual_spectrum(a, basis, side: str) -> Spectrum:
    """Full singular spectrum of the projected residual.

    side "left" gives sigma((I - Q Q^T) a), side "right" sigma(a (I - Q Q^T)).
    """
    a = as_matrix(a)
    basis = as_matrix(basis, "basis")
    if side == "left":
        resid = a - basis @ (basis.T @ a)
    elif side == "right":
        resid = a - (a @ basis) @ basis.T
    else:
        raise ValueError("side must be 'left' or 'right'")
    return Spectrum.from_values(np.linalg.svd(resid, compute_uv=False))


def residual_ratio_bounds(residual: Spectrum, true_spectrum: Spectrum, k: int,
                          side: str = "left") -> BoundReport:
    """Per-index bound min(residual_{k-i+1} / sigma_k, residual_1 / sigma_i).

    ``residual`` is the projected-residual spectrum from
    :func:`residual_spectrum`; sigma values come from ``true_spectrum``
    (which may equally be a padded approximation). Requires sigma_k > 0.
    """
    if k < 1 or k > residual.size:
        raise ValueError("k out of range for the residual spectrum")
    if k > true_spectrum.size or true_spectrum.values[k - 1] == 0.0:
        raise ValueError("target rank exceeds numerical rank")
    sigma_k = true_spectrum.values[k - 1]
    res = residual.values
    # ascending-angle position i pairs with residual value sigma_{k-i+1}(res)
    by_gap = res[k - 1::-1] / sigma_k
    by_index = res[0] / true_spectrum.values[:k]
    return make_report(np.minimum(by_gap, by_index), "residual_ratio", side)


def _spec_norm(x: np.ndarray) -> float:
    s = np.linalg.svd(x, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def residual_blocks(a, out: RsvdOutput, k: int, right_residual: Spectrum) -> ResidualStats:
    """Residual-block norms for a delivered rank-l approximation.

    The three spectral norms are exact (dense singular values), so the gap
    bounds built from them are valid certificates. ``right_residual`` is
    ``residual_spectrum(a, out.v, "right")``; its top value is the
    out-of-basis norm.
    """
    a = as_matrix(a)
    f = out.factors
    if not 1 <= k < f.width:
        raise ValueError("need 1 <= k < l")
    # (a - u sigma v^T) v = a v - u sigma, as v has orthonormal columns
    err_v = a @ f.v - f.u * f.sigma
    in_basis_2 = _spec_norm(err_v)
    beyond_k_2 = _spec_norm(err_v[:, k:])
    return ResidualStats(in_basis_2, beyond_k_2, float(right_residual.values[0]),
                         float(f.sigma[k]))


def gap_bounds(stats: ResidualStats, spectrum: Spectrum, k: int) -> list[BoundReport]:
    """All eight gap-bound reports for one ResidualStats record.

    Kinds: gap_norm_rank_l / gap_norm_rank_k (spectral-norm bounds, the
    scalar replicated across indices) and gap_anglewise_rank_l /
    gap_anglewise_rank_k (per-index variants), each for side "left"
    (comparing against the rank-l or rank-k left basis) and "right". The
    gaps are computed here from the sigma_k of ``spectrum``, so each
    spectrum source gets its own. Raises when the gap assumptions fail.
    """
    if k > spectrum.size or k < 1:
        raise ValueError("k out of range for the spectrum")
    sigma_k = float(spectrum.values[k - 1])
    shat = stats.sigma_hat_next
    out2 = stats.resid_out_of_basis_2
    if sigma_k <= shat or sigma_k <= out2:
        raise ValueError(
            "gap assumption violated (sigma_k <= sigma_hat_{k+1} or sigma_k <= residual norm)")
    d_sigma = sigma_k**2 - shat**2
    d_resid = sigma_k**2 - out2**2
    g1 = d_sigma / sigma_k
    g2 = d_sigma / shat if shat > 0 else np.inf
    r1 = d_resid / sigma_k
    r2 = d_resid / out2 if out2 > 0 else np.inf
    in2 = stats.resid_in_basis_2
    e32 = stats.resid_beyond_k_2
    base = in2 / r1
    factors = sigma_k / spectrum.values[:k]  # ascending, <= 1
    k_left_amp = np.sqrt(1.0 + (factors * e32 / g2) ** 2)
    k_right_amp = np.sqrt((factors * e32 / g1) ** 2 + (out2 / sigma_k) ** 2)
    norm_k_left = base * np.sqrt(1.0 + (e32 / g2) ** 2)
    norm_k_right = base * np.sqrt((e32 / g1) ** 2 + (out2 / sigma_k) ** 2)
    return [
        make_report(np.full(k, base), "gap_norm_rank_l", "left"),
        make_report(np.full(k, in2 / r2), "gap_norm_rank_l", "right"),
        make_report(np.full(k, norm_k_left), "gap_norm_rank_k", "left"),
        make_report(np.full(k, norm_k_right), "gap_norm_rank_k", "right"),
        make_report(factors * base, "gap_anglewise_rank_l", "left"),
        make_report(factors * (in2 / r2), "gap_anglewise_rank_l", "right"),
        make_report(base * k_left_amp, "gap_anglewise_rank_k", "left"),
        make_report(base * k_right_amp, "gap_anglewise_rank_k", "right"),
    ]
