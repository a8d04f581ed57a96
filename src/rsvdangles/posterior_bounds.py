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

Every residual value and norm a bound reads is certified from above: it is
the square root of an eigenvalue of the computed Gram matrix raised by a
rounding margin (see ``_certified_top``), or, where that margin is not small
against the value, the dense singular value.

All bound values are emitted in ascending-angle order; per-index variants
carry the factor sigma_k / sigma_i at position i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _EPS, Spectrum, SvdFactors, as_matrix
from .prior_bounds import BoundReport, GapViolated, make_report


@dataclass(frozen=True)
class ResidualStats:
    """Residual-block norms of a rank-l approximation, the top k values of its
    right residual a - a v v^T, sigma_hat_{k+1} and a bound on the rounding
    of sigma_hat_{k+1} (see ``residual_blocks``)."""

    resid_in_basis_2: float
    resid_beyond_k_2: float
    right_residual: Spectrum
    sigma_hat_next: float
    sigma_hat_margin: float

    @property
    def resid_out_of_basis_2(self) -> float:
        return float(self.right_residual.values[0])


# The Gram route is taken only while its margin delta stays below
# sqrt(eps) * lambda_k. A certified value sqrt(lambda_i + delta) then exceeds
# the exact one, which is at least sqrt(lambda_i - delta), by a relative
# delta / lambda_k or less to first order: it keeps half the digits of a
# double. Past that the margin would make the bound slack, and the dense SVD
# is taken instead.
_MAX_MARGIN = float(np.sqrt(_EPS))


def _svdvals(x: np.ndarray) -> np.ndarray:
    return np.linalg.svd(x, compute_uv=False)


def _certified_top(gram: np.ndarray, size: int, k: int, dense) -> np.ndarray:
    """Upper bounds on the top k singular values of a matrix x from its
    computed Gram matrix ``gram`` (x x^T or x^T x, p-by-p), where ``size``
    is p plus the inner dimension n of the product, the row and column
    counts of x together. ``dense()`` returns the singular values of x by a
    dense SVD, the fallback.

    With u = eps / 2, the computed Gram is G + E with
    ||E||_2 <= gamma_n ||x||_F^2, gamma_n = n u / (1 - n u), as each entry is
    a dot product of length n (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.5). The symmetric eigensolver returns the
    exact eigenvalues of G + E + F with ||F||_2 <= p eps ||G + E||_2, taking
    p for LAPACK's modestly growing function of the dimension. By Weyl's
    inequality (Golub and Van Loan, Matrix Computations, 4th ed., ch. 8)
    |lambda_i - sigma_i(x)^2| <= (n u + p eps)(1 + n u)^2 ||x||_F^2, and
    ||x||_F^2 is the trace of the computed Gram up to a factor 1 + n u + p u.
    delta = 2 (p + n) eps trace(gram) covers that sum twice over, so
    sigma_i(x) <= sqrt(lambda_i + delta). The dense SVD is taken unless
    delta < _MAX_MARGIN * lambda_k.
    """
    delta = 2.0 * size * _EPS * float(np.trace(gram))
    lam = np.linalg.eigvalsh(gram)[::-1][:k]
    if delta < _MAX_MARGIN * lam[-1]:
        return np.sqrt(lam + delta)
    return dense()[:k]


def _residual_top(a: np.ndarray, resid, k: int) -> Spectrum:
    """The top k certified singular values of the residual R that ``resid()``
    forms, from the smaller Gram matrix of R. R is dropped before the
    eigensolver runs, and formed again only for the dense fallback."""
    r = resid()
    gram = r @ r.T if a.shape[0] <= a.shape[1] else r.T @ r
    del r
    return Spectrum(_certified_top(gram, sum(a.shape), k, lambda: _svdvals(resid())))


def residual_spectrum(a, basis, k: int) -> Spectrum:
    """The top k singular values of the left projected residual
    (I - Q Q^T) a, each certified from above (see ``_certified_top``). The
    right residual a (I - Q Q^T) comes from ``residual_blocks``."""
    a = as_matrix(a)
    basis = as_matrix(basis, "basis")
    if not 1 <= k <= min(a.shape):
        raise ValueError("k out of range for the residual spectrum")
    return _residual_top(a, lambda: a - basis @ (basis.T @ a), k)


def residual_ratio_bounds(residual: Spectrum, true_spectrum: Spectrum, k: int) -> BoundReport:
    """Per-index bound min(residual_{k-i+1} / sigma_k, residual_1 / sigma_i).

    ``residual`` holds the top k certified values of the projected residual,
    from :func:`residual_spectrum` on the left and :func:`residual_blocks` on
    the right; sigma values come from ``true_spectrum``
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
    return make_report(np.minimum(by_gap, by_index))


def residual_blocks(a, f: SvdFactors, k: int) -> ResidualStats:
    """Residual-block norms and right residual of a delivered rank-l approximation.

    The three spectral norms are certified from above, so the gap bounds
    built from them are valid certificates. The in-basis and beyond-k norms
    are the top values of the l-by-l Gram matrix of the m-by-l in-basis
    residual and of its trailing block, with the margin of
    ``_certified_top``. One product a v serves that residual and the right
    residual a - a v v^T, whose top k values it certifies as
    ``residual_spectrum`` does the left one; the top one is the out-of-basis
    norm.

    The margin bounds the rounding of sigma_hat_{k+1} where rsvd computed f
    as the SVD of fl(a^T x), x its m-by-l orthonormal basis. With
    u = eps / 2, fl(a^T x) = a^T x + E with |E| <= gamma_m |a^T| |x|
    entrywise, each entry a dot product of length m (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.5), so
    ||E||_2 <= gamma_m ||a||_F ||x||_F = gamma_m sqrt(l) ||a||_F. The SVD
    returns the exact singular values of fl(a^T x) + F with
    ||F||_2 <= p eps ||fl(a^T x)||_2, p = n + l taken for LAPACK's modestly
    growing function of the dimensions, as ``_certified_top`` does for the
    eigensolver; ||fl(a^T x)||_2 is sigma_hat_1 to that accuracy. By Weyl's
    inequality sigma_hat_{k+1} lies within ||E||_2 + ||F||_2 of
    sigma_{k+1}(a^T x). margin = eps (m sqrt(l) ||a||_F + 2 (n + l)
    sigma_hat_1) covers that sum twice over, as gamma_m = m u / (1 - m u).
    """
    a = as_matrix(a)
    if not 1 <= k < f.sigma.size:
        raise ValueError("need 1 <= k < l")
    a_v = a @ f.v
    # (a - u sigma v^T) v = a v - u sigma, as v has orthonormal columns
    err_v = a_v - f.u * f.sigma
    gram = err_v.T @ err_v
    m, l = err_v.shape
    in_basis_2 = _certified_top(gram, m + l, 1, lambda: _svdvals(err_v))[0]
    # the trailing block of the Gram is the Gram of err_v[:, k:]
    beyond_k_2 = _certified_top(gram[k:, k:], m + l - k, 1,
                                lambda: _svdvals(err_v[:, k:]))[0]
    n = a.shape[1]
    margin = _EPS * (m * np.sqrt(l) * np.linalg.norm(a) + 2.0 * (n + l) * f.sigma[0])
    return ResidualStats(float(in_basis_2), float(beyond_k_2),
                         _residual_top(a, lambda: a - a_v @ f.v.T, k), float(f.sigma[k]),
                         float(margin))


def gap_bounds(stats: ResidualStats, spectrum: Spectrum,
               k: int) -> dict[tuple[str, str], BoundReport]:
    """All eight gap-bound reports for one ResidualStats record, keyed by
    (kind, side).

    Kinds: gap_norm_rank_l / gap_norm_rank_k (spectral-norm bounds, the
    scalar replicated across indices) and gap_anglewise_rank_l /
    gap_anglewise_rank_k (per-index variants), each for side "left"
    (comparing against the rank-l or rank-k left basis) and "right". The
    gaps are computed here from the sigma_k of ``spectrum``, so each
    spectrum source gets its own. Failed gap assumptions raise GapViolated.

    sigma_k must exceed sigma_hat_{k+1} by more than 2 delta, delta the
    rounding margin of sigma_hat_{k+1} (``ResidualStats.sigma_hat_margin``):
    on a tie sigma_k = sigma_{k+1} that the sketch caught, sigma_hat_{k+1}
    may round below sigma_k. The second delta covers an unplanted sigma_k. On
    the padded source it is sigma_hat_k, a value of the same SVD of
    fl(a^T x), whose rounding ``residual_blocks``' argument bounds by delta
    too; and sigma_k(a^T x) <= sigma_k(a), as ||x||_2 = 1. For snn, image
    and file matrices the dense SVD of a returns the exact values of a + F,
    ||F||_2 <= (m + n) eps ||a||_2 (p = m + n, as there). As ||a||_F >=
    ||a||_2, delta covers that where n <= (sqrt(l) - 1) m or sigma_hat_1 >=
    ||a||_2 / 2; elsewhere a certified check takes (m + n) eps sigma_1 for
    that sigma_k. The margin enters the check only, not the bound values.
    """
    if k > spectrum.size or k < 1:
        raise ValueError("k out of range for the spectrum")
    sigma_k = float(spectrum.values[k - 1])
    shat = stats.sigma_hat_next
    out2 = stats.resid_out_of_basis_2
    if sigma_k - shat <= 2.0 * stats.sigma_hat_margin or sigma_k <= out2:
        raise GapViolated("gap assumption violated (sigma_k - sigma_hat_{k+1} <= twice its"
                          " rounding margin or sigma_k <= residual norm)")
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
    return {
        ("gap_norm_rank_l", "left"): make_report(np.full(k, base)),
        ("gap_norm_rank_l", "right"): make_report(np.full(k, in2 / r2)),
        ("gap_norm_rank_k", "left"): make_report(np.full(k, norm_k_left)),
        ("gap_norm_rank_k", "right"): make_report(np.full(k, norm_k_right)),
        ("gap_anglewise_rank_l", "left"): make_report(factors * base),
        ("gap_anglewise_rank_l", "right"): make_report(factors * (in2 / r2)),
        ("gap_anglewise_rank_k", "left"): make_report(base * k_left_amp),
        ("gap_anglewise_rank_k", "right"): make_report(base * k_right_amp),
    }
