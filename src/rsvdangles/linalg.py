"""Dense real double-precision linear-algebra kernels.

Everything in this package moves plain float64 numpy arrays around with
(row, col) access semantics. The functions here never mutate their inputs
and are safe to call concurrently. The one exception is a workspace that a
caller lends (``sv_x_pinv``'s ``work``): it is overwritten, and it must not
be shared between concurrent calls. That workspace may be ``sv_x_pinv``'s
``y`` itself, which the call then overwrites.

Randomness is always drawn from a counter-based Philox generator keyed by a
64-bit seed (see :func:`seeded_rng`), so a (seed, draw index) pair fully
determines every random draw, independent of scheduling or platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_EPS = float(np.finfo(np.float64).eps)
# the one cut-off of every rank test: a smallest singular value or R diagonal
# entry at most this times the scale of the input counts as rank lost
_RANK_TOL = 1e-12


class RankDeficient(ValueError):
    """A rank test found its input short of full column rank. Callers read
    the verdict from this type rather than from the message."""


def seeded_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a 64-bit seed (numpy Philox, ziggurat normals)."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


# doubles in the one buffer that normal_row_blocks draws through (128 KiB)
_DRAW_BUFFER = 16_384


def normal_row_blocks(rng: np.random.Generator, n: int, width: int):
    """Yield (i, rows) for the rows i, i + 1, ... of the n-by-width matrix
    rng.standard_normal((n, width)) would draw, drawn block by block into
    one reused buffer of _DRAW_BUFFER doubles (one row if a row is wider);
    each block is overwritten by the next. The generator fills row-major and
    keeps no state between calls but its stream position, so the same words
    are consumed in the same order, and the draws that follow agree too."""
    height = max(1, min(n, _DRAW_BUFFER // max(width, 1)))
    buf = np.empty((height, width))
    for i in range(0, n, height):
        rows = buf[:n - i]
        rng.standard_normal(out=rows)
        yield i, rows


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input into a finite 2-d float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _max_abs(m: np.ndarray) -> float:
    """max|m| of a finite m, without an |m| temporary."""
    return float(max(m.max(), -m.min()))


@dataclass(frozen=True)
class Spectrum:
    """Non-increasing, non-negative singular values and their declared rank,
    the count of positive values: entries at positions >= ``declared_rank``
    are exactly zero, entries before are strictly positive.
    """

    values: np.ndarray
    declared_rank: int = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d array")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ValueError("spectrum values must be finite and nonnegative")
        if (np.diff(v) > 0).any():
            raise ValueError("spectrum values must be non-increasing")
        object.__setattr__(self, "declared_rank", int(np.count_nonzero(v)))

    @property
    def size(self) -> int:
        return int(self.values.size)

    def tail(self, k: int) -> np.ndarray:
        """Positive values strictly below index k (the tail used by all bounds)."""
        return self.values[k:self.declared_rank]


@dataclass(frozen=True)
class SvdFactors:
    """(u, sigma, v) with orthonormal columns in u, v and non-increasing sigma."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        p = self.sigma.size
        if self.u.ndim != 2 or self.v.ndim != 2 or self.sigma.ndim != 1:
            raise ValueError("SvdFactors shapes are malformed")
        if self.u.shape[1] != p or self.v.shape[1] != p:
            raise ValueError("factor widths must match the number of singular values")
        if (self.sigma < 0).any() or (np.diff(self.sigma) > 0).any():
            raise ValueError("singular values must be nonnegative and non-increasing")


def ortho(m) -> np.ndarray:
    """Orthonormal basis of range(m) via reduced unpivoted QR.

    Raises RankDeficient("rank deficient sketch") when an R diagonal entry
    falls below _RANK_TOL times the Frobenius norm of the input, which
    signals that a sketch collapsed (or the input was rank deficient to
    begin with). Both sides are scaled by 2^-e, 2^e the least power of two
    above max|m|, as in ``sv_x_pinv``. That is exact, so the norm cannot
    overflow, and wherever it was finite unscaled the test decides as before.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if cols > rows:
        raise ValueError("ortho requires cols <= rows")
    q, r = np.linalg.qr(m)
    e = math.frexp(_max_abs(m))[1]
    if np.ldexp(np.abs(np.diag(r)).min(), -e) <= _RANK_TOL * np.linalg.norm(np.ldexp(m, -e)):
        raise RankDeficient("rank deficient sketch")
    return q


def svd_full(m) -> SvdFactors:
    """Economy SVD of a dense matrix, delegated to the LAPACK kernel."""
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("svd failed") from exc
    return SvdFactors(u, s, vh.T)


def sv_x_pinv(x, y, *, work: np.ndarray | None = None) -> np.ndarray:
    """Singular values of x @ pinv(y) for a tall y of full column rank.

    With the reduced QR y = Q R, pinv(y) = inv(R) Q.T, and Q.T has
    orthonormal rows, so the values are those of solve(R.T, x.T): one small
    solve and one values-only SVD.

    For an n-by-l y, let 2^e be the least power of two above max|y|
    (``math.frexp``) and y~ = 2^-e y, whose entries lie in (-1, 1). Unlike
    a division by max|y|, this scaling is exact, except that an entry
    pushed below the normal range keeps an absolute error of 2^-1075 at
    most. The Gram G = fl(y~^T y~) cannot overflow, T = trace(G) >= 1/4,
    and with u = eps / 2, to first order: G = y~^T y~ + E with
    ||E||_2 <= gamma_n T, as each entry is a dot product of length n
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 3.5). If the factorization of fl(G - tau I) completes, its factor
    C has C^T C = fl(G - tau I) + F with ||F||_2 <= gamma_{l+1} T
    (Thm 10.3), and the rounding of the shifted diagonal adds u T, so
    lambda_min(y~^T y~) >= tau - (n + l + 2) u T.

    The fast shift, tau = (n + l + 4) sqrt(eps) T / 2 = (n + l + 4) u T /
    sqrt(eps), takes R from L = cholesky(G). Write y~^T y~ = R~^T R~ with
    R~ = 2^-e R. Cholesky's backward error gives L L^T = R~^T R~ + H with
    ||H||_2 <= (n + l + 1) u T, so L L^T = R~^T (I + K) R~ with
    ||K||_2 <= eta = ||H||_2 / lambda_min(R~^T R~). The shift leaves
    lambda_min(R~^T R~) >= tau - (n + l + 2) u T, so
    eta <= (n + l + 1) sqrt(eps) / (n + l + 4 - (n + l + 2) sqrt(eps))
    < sqrt(eps) wherever (n + l + 2) sqrt(eps) < 3, that is for any n + l
    below 2e8. For W = x inv(R~), x inv(L L^T) x^T = W inv(I + K) W^T lies
    between W W^T / (1 + eta) and W W^T / (1 - eta) in the Loewner order,
    so every singular value of solve(2^e L, x.T) is the matching value of
    x @ pinv(y) = 2^-e W Q^T within a factor 1 / sqrt(1 -+ eta): at most
    about eta / 2 < sqrt(eps) / 2 = 7.45e-9 relative, on the smallest values
    as on the largest. That keeps half the digits, as the Gram route of
    ``posterior_bounds`` does. The two spare units of u T in tau cover the
    higher-order terms and the underflow. The shift also proves
    sigma_min(y) / sigma_max(y) >= sqrt(tau / T) >= sqrt(3 sqrt(eps)) > 2e-4,
    as n + l >= 2, far above the _RANK_TOL cut-off, so no rank check runs.

    Where the fast shift fails, R comes from a Householder QR of y~ as
    R~. That QR commutes with the power-of-two scaling, so 2^e R~ is, bit
    for bit, the triangle of a QR of y itself wherever that triangle is
    right; where y's column norms lie near the float range, a QR of y
    itself returns a finite but wrong triangle, and 2^e R~ stays right. A
    values-only SVD of R~ then decides the rank: RankDeficient("rank
    deficient y") when its smallest singular value is at most _RANK_TOL
    times its largest, or when y is 0. This verdict comes before x is
    checked, so a y without full column rank raises RankDeficient even
    where x is not finite.

    Both paths end alike. The triangle 2^e L or 2^e R~^T is scaled back,
    which is exact: solve(2^e L, x.T) = 2^-e solve(L, x.T) bit for bit, so
    the solve and the values-only SVD round as they would on y~. A
    ValueError names the overflow where a finite y has column norms beyond
    the float range, so that the triangle is not finite, and where the
    solve overflows. Where max|y| is subnormal, the scaled-back triangle is
    subnormal too, and both paths then round as a Householder QR of y
    itself does; no caller in this package passes such a y.

    y~ is written into ``work``, an n-by-l float64 array the caller lends
    and this call overwrites, or into a new array where it is None; the
    values do not depend on which. ``work`` may be y itself, which the call
    then overwrites with y~. x is never written to, nor is y otherwise.
    """
    y = as_matrix(y, "y")
    if y.shape[0] < y.shape[1]:
        raise ValueError("y must have at least as many rows as columns")
    n, l = y.shape
    top = _max_abs(y)
    if top == 0.0:
        raise RankDeficient("rank deficient y")
    e = math.frexp(top)[1]
    yt = np.ldexp(y, -e, out=work)
    g = yt.T @ yt
    tau = (n + l + 4) * math.sqrt(_EPS) / 2 * float(np.trace(g))
    shifted = g.copy()  # bit for bit g - tau * I, which subtracts 0.0 off the diagonal
    shifted.flat[::l + 1] -= tau
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        r = np.linalg.qr(yt, mode="r")
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] <= _RANK_TOL * s[0]:
            raise RankDeficient("rank deficient y") from None
        lower = r.T
    else:
        lower = np.linalg.cholesky(g)
    x = as_matrix(x, "x")
    if x.shape[1] != l:
        raise ValueError("x and y column counts differ")
    with np.errstate(over="ignore"):
        np.ldexp(lower, e, out=lower)
    if not np.isfinite(lower).all():
        raise ValueError("y overflows: its column norms exceed the float range")
    z = np.linalg.solve(lower, x.T)
    if not np.isfinite(z).all():
        raise ValueError("x @ pinv(y) overflows: a value exceeds the float range")
    return np.linalg.svd(z, compute_uv=False)
