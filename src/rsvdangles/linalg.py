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


def _scaled_gram(a: np.ndarray, shift: float):
    """(top, g, T) for top = max|a|, the Gram g = fl(a~^T a~) of
    a~ = fl(a / top) and T = trace(g); g is None unless a is nonzero and
    the Cholesky factorization of fl(g - tau I) with tau = shift * T
    completes.

    The entries of a~ lie in [-1, 1], so g cannot overflow, T >= 1, and
    underflow costs an absolute 1e-320 or so. A completed factorization has
    a computed factor C with C^T C = fl(g - tau I) + F and |F| <=
    gamma_{l+1} |C^T| |C| for an l-column a (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm 10.3), so ||F||_2 <=
    gamma_{l+1} trace(C^T C) <= gamma_{l+1} (1 + u) T / (1 - gamma_{l+1})
    with u = eps / 2, and the computed g - tau I + F is positive
    semidefinite. With u T for the rounding of the shifted diagonal,
    lambda_min(g) >= tau - u T - ||F||_2. The callers add the rounding of
    g itself and derive their shift from that.
    """
    top = float(np.abs(a).max())
    if top == 0.0:
        return top, None, 0.0
    at = a / top
    g = at.T @ at
    trace = float(np.trace(g))
    try:
        np.linalg.cholesky(g - shift * trace * np.eye(g.shape[0]))
    except np.linalg.LinAlgError:
        return top, None, trace
    return top, g, trace


def _certified_full_rank(r: np.ndarray) -> bool:
    """True only if sigma_min(r) / sigma_max(r) >= sqrt(2 (l + 1) eps) for
    the finite l-by-l triangle r, far above the 1e-12 at which ``sv_x_pinv``
    raises.

    With ``_scaled_gram``'s r~ and g: the division moves each singular value
    by at most u ||r~||_F; g = r~^T r~ + E with ||E||_2 <= gamma_l ||r~||_F^2
    and ||r~||_F^2 <= T / (1 - gamma_l), as each entry is a dot product of
    length l (Higham, sec. 3.5). By Weyl's inequality lambda_min(r~^T r~) >=
    tau - u T - ||F||_2 - ||E||_2, and the three terms sum to (l + 1) eps T
    to first order. tau = 4 (l + 1) eps T leaves sigma_min(r~)^2 >=
    3 (l + 1) eps T against sigma_max(r~)^2 <= T / (1 - gamma_l), and the
    division's u ||r~||_F takes far less than the step from 3 to 2. The
    values-only SVD errs by p(l) eps sigma_max(r), with LAPACK's modestly
    growing p, so the dense check could not have raised.
    """
    return _scaled_gram(r, 4.0 * (r.shape[1] + 1) * _EPS)[1] is not None


def sv_x_pinv(x, y) -> np.ndarray:
    """Singular values of x @ pinv(y) for a tall y of full column rank.

    With the reduced QR y = Q R, pinv(y) = inv(R) Q.T, and Q.T has
    orthonormal rows, so the values are those of solve(R.T, x.T): one small
    solve and one values-only SVD.

    R is taken from the Cholesky factor L of ``_scaled_gram``'s g wherever
    the shifted factorization certifies that this moves every value by at
    most 1e-10 relative. For an n-by-l y, take ``_scaled_gram``'s y~, g and
    T, and write (y / top)^T (y / top) = R~^T R~, so that R~ = R / top.
    With u = eps / 2, to first order: the division's rounding
    (|y~ - y / top| <= u |y / top|) moves the Gram by 2 u T, and g's own
    rounding, dot products of length n, by gamma_n T. Cholesky's backward
    error adds gamma_{l+1} T, so L L^T = R~^T R~ + H with ||H||_2 <=
    (n + l + 3) u T. Then L L^T = R~^T (I + K) R~ with ||K||_2 <= eta =
    ||H||_2 / lambda_min(R~^T R~), so for W = x inv(R~),
    x inv(L L^T) x^T = W inv(I + K) W^T lies between W W^T / (1 + eta) and
    W W^T / (1 - eta) in the Loewner order. Every singular value of
    solve(L, x.T) / top is therefore the matching value of
    x @ pinv(y) = W Q^T / top within a factor 1 / sqrt(1 -+ eta): a relative
    error of eta / 2 to first order, on the smallest values as on the
    largest. The shifted factorization gives lambda_min(R~^T R~) >=
    tau - (n + l + 4) u T (``_scaled_gram``'s terms, with the Gram's
    2 u T + gamma_n T), so tau = (n + l + 4) eps T / 2e-10 =
    1e10 (n + l + 4) u T leaves eta < 1.0000001e-10: every value moves by at
    most about 5e-11 relative, half of 1e-10, which leaves room for the
    higher-order terms. Dividing the values, not the matrix, by top adds one
    rounding to each; the solve and the values-only SVD round as on the
    Householder path. The shift also proves sigma_min(y) / sigma_max(y) >=
    sqrt(tau / T) > 2e-3, far above the 1e-12 cut-off below, so no rank
    check runs.

    Where that factorization fails, y is 0, ||y||_F = top sqrt(T) overflows
    or a value is not finite, R comes from a Householder QR of y instead.
    That path raises ValueError("rank deficient y") when the smallest
    singular value of y is at most 1e-12 times its largest, and ValueError
    naming the overflow when a finite y has column norms beyond the float
    range, so that R is not finite. A scaled Gram-Cholesky test
    (``_certified_full_rank``) settles its rank first wherever y is far
    from the limit; only where it fails does a values-only SVD of R decide.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if y.shape[0] < y.shape[1]:
        raise ValueError("y must have at least as many rows as columns")
    if x.shape[1] != y.shape[1]:
        raise ValueError("x and y column counts differ")
    n, l = y.shape
    top, g, trace = _scaled_gram(y, (n + l + 4) * _EPS / 2e-10)
    # an overflowing ||y||_F = top sqrt(T) goes to the Householder path,
    # which names it
    if g is not None and math.isfinite(top * math.sqrt(trace)):
        try:
            z = np.linalg.solve(np.linalg.cholesky(g), x.T)
        except np.linalg.LinAlgError:
            z = None
        if z is not None and np.isfinite(z).all():
            with np.errstate(over="ignore"):
                s = np.linalg.svd(z, compute_uv=False) / top
            if np.isfinite(s).all():
                return s
    r = np.linalg.qr(y, mode="r")
    if not np.isfinite(r).all():
        raise ValueError("y overflows: its QR factor R is not finite")
    if not _certified_full_rank(r):
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise ValueError("rank deficient y")
    return np.linalg.svd(np.linalg.solve(r.T, x.T), compute_uv=False)
