"""Dense real double-precision linear-algebra kernels.

Everything in this package moves plain float64 numpy arrays around with
(row, col) access semantics. All functions here are pure: they never mutate
their inputs and are safe to call concurrently.

Randomness is always drawn from a counter-based Philox generator keyed by a
64-bit seed (see :func:`seeded_rng`), so a (seed, draw index) pair fully
determines every random draw, independent of scheduling or platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_EPS = float(np.finfo(np.float64).eps)


def seeded_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a 64-bit seed (numpy Philox, ziggurat normals)."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


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


@dataclass(frozen=True)
class Spectrum:
    """Non-increasing, non-negative singular values with a declared rank.

    Entries at positions >= ``declared_rank`` are exactly zero; entries
    before are strictly positive.
    """

    values: np.ndarray
    declared_rank: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d array")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ValueError("spectrum values must be finite and nonnegative")
        if (np.diff(v) > 0).any():
            raise ValueError("spectrum values must be non-increasing")
        r = self.declared_rank
        if not (0 <= r <= v.size):
            raise ValueError("declared_rank out of range")
        if (v[:r] <= 0).any() or (v[r:] != 0).any():
            raise ValueError("declared_rank must separate positive values from exact zeros")

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        """Build a spectrum inferring the declared rank as the nonzero count."""
        v = np.asarray(values, dtype=np.float64)
        return cls(v, int(np.count_nonzero(v)))

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

    @property
    def width(self) -> int:
        return int(self.sigma.size)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def ortho(m) -> np.ndarray:
    """Orthonormal basis of range(m) via reduced unpivoted QR.

    Raises ValueError("rank deficient sketch") when an R diagonal entry falls
    below 1e-12 times the Frobenius norm of the input, which signals that a
    sketch collapsed (or the input was rank deficient to begin with).
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if cols > rows:
        raise ValueError("ortho requires cols <= rows")
    q, r = np.linalg.qr(m)
    if np.abs(np.diag(r)).min() <= 1e-12 * np.linalg.norm(m):
        raise ValueError("rank deficient sketch")
    return q


def svd_full(m) -> SvdFactors:
    """Economy SVD of a dense matrix, delegated to the LAPACK kernel."""
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("svd failed") from exc
    return SvdFactors(u, s, vh.T)


def sv_x_pinv(x, y) -> np.ndarray:
    """Singular values of x @ pinv(y) for a tall y of full column rank.

    With the reduced QR y = Q R, pinv(y) = inv(R) Q.T, and Q.T has
    orthonormal rows, so the values are those of solve(R.T, x.T): one small
    solve and one values-only SVD.

    For an n-by-l y, let 2^e be the least power of two above max|y|
    (``math.frexp``) and y~ = 2^-e y, whose entries lie in (-1, 1). Unlike
    a division by max|y|, this scaling is exact, except that an entry
    pushed below the normal range keeps an absolute error of 2^-1075 at
    most. One Gram G = fl(y~^T y~) serves two shifted Cholesky tests. G
    cannot overflow, T = trace(G) >= 1/4, and with u = eps / 2, to first
    order: G = y~^T y~ + E with ||E||_2 <= gamma_n T, as each entry is a
    dot product of length n (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.5). If the factorization of fl(G - tau I)
    completes, its factor C has C^T C = fl(G - tau I) + F with
    ||F||_2 <= gamma_{l+1} T (Thm 10.3), and the rounding of the shifted
    diagonal adds u T, so lambda_min(y~^T y~) >= tau - (n + l + 2) u T.

    The fast shift, tau = (n + l + 4) eps T / 2e-10 = 1e10 (n + l + 4) u T,
    takes R from L = cholesky(G). Write y~^T y~ = R~^T R~ with R~ = 2^-e R.
    Cholesky's backward error gives L L^T = R~^T R~ + H with
    ||H||_2 <= (n + l + 1) u T, so L L^T = R~^T (I + K) R~ with
    ||K||_2 <= eta = ||H||_2 / lambda_min(R~^T R~) < 1e-10. For
    W = x inv(R~), x inv(L L^T) x^T = W inv(I + K) W^T lies between
    W W^T / (1 + eta) and W W^T / (1 - eta) in the Loewner order, so every
    singular value of solve(2^e L, x.T) is the matching value of
    x @ pinv(y) = 2^-e W Q^T within a factor 1 / sqrt(1 -+ eta): at most
    about 5e-11 relative, on the smallest values as on the largest. The two
    spare units of u T in tau cover the higher-order terms and the
    underflow. The shift also proves sigma_min(y) / sigma_max(y) >=
    sqrt(tau / T) > 2e-3, far above the 1e-12 cut-off below, so no rank
    check runs.

    Where the fast shift fails, R comes from a Householder QR of y~ as
    R~. That QR commutes with the power-of-two scaling, so 2^e R~ is, bit
    for bit, the triangle of a QR of y itself wherever that triangle is
    right; where y's column norms lie near the float range, a QR of y
    itself returns a finite but wrong triangle, and 2^e R~ stays right.
    The rank shift
    tau = 4 (n + l + 1) eps T then leaves lambda_min(y~^T y~) >=
    3 (n + l + 1) eps T against sigma_max(y~)^2 <= T / (1 - gamma_n), so
    sigma_min(y) / sigma_max(y) >= sqrt(2 (n + l + 1) eps) with room for
    the higher-order terms. The QR's backward error (Thm 19.4) and the
    values-only SVD's, each a modest multiple of eps sigma_max, could not
    bring R~ down to the cut-off, so no rank check runs there either. Only
    where that factorization also fails does a values-only SVD of R~
    decide: ValueError("rank deficient y") when its smallest singular value
    is at most 1e-12 times its largest, or when y is 0.

    Both paths end alike. The triangle 2^e L or 2^e R~^T is scaled back,
    which is exact: solve(2^e L, x.T) = 2^-e solve(L, x.T) bit for bit, so
    the solve and the values-only SVD round as they would on y~. A
    ValueError names the overflow where a finite y has column norms beyond
    the float range, so that the triangle is not finite, and where the
    solve overflows. Where max|y| is subnormal, the scaled-back triangle is
    subnormal too, and both paths then round as a Householder QR of y
    itself does; no caller in this package passes such a y.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if y.shape[0] < y.shape[1]:
        raise ValueError("y must have at least as many rows as columns")
    if x.shape[1] != y.shape[1]:
        raise ValueError("x and y column counts differ")
    n, l = y.shape
    top = float(np.abs(y).max())
    if top == 0.0:
        raise ValueError("rank deficient y")
    e = math.frexp(top)[1]
    yt = np.ldexp(y, -e)
    g = yt.T @ yt
    trace = float(np.trace(g))
    try:
        np.linalg.cholesky(g - (n + l + 4) * _EPS / 2e-10 * trace * np.eye(l))
    except np.linalg.LinAlgError:
        r = np.linalg.qr(yt, mode="r")
        try:
            np.linalg.cholesky(g - 4.0 * (n + l + 1) * _EPS * trace * np.eye(l))
        except np.linalg.LinAlgError:
            s = np.linalg.svd(r, compute_uv=False)
            if s[-1] <= 1e-12 * s[0]:
                raise ValueError("rank deficient y") from None
        lower = r.T
    else:
        lower = np.linalg.cholesky(g)
    with np.errstate(over="ignore"):
        np.ldexp(lower, e, out=lower)
    if not np.isfinite(lower).all():
        raise ValueError("y overflows: its column norms exceed the float range")
    z = np.linalg.solve(lower, x.T)
    if not np.isfinite(z).all():
        raise ValueError("x @ pinv(y) overflows: a value exceeds the float range")
    return np.linalg.svd(z, compute_uv=False)
