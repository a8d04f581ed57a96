"""Dense real double-precision linear-algebra kernels.

Everything in this package moves plain float64 numpy arrays around with
(row, col) access semantics. All functions here are pure: they never mutate
their inputs and are safe to call concurrently.

Randomness is always drawn from a counter-based Philox generator keyed by a
64-bit seed (see :func:`seeded_rng`), so a (seed, draw index) pair fully
determines every random draw, independent of scheduling or platform.
"""

from __future__ import annotations

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


def _certified_full_rank(r: np.ndarray) -> bool:
    """True only if sigma_min(r) / sigma_max(r) >= sqrt(2 (l + 1) eps) for
    the finite l-by-l triangle r, far above the 1e-12 at which ``sv_x_pinv``
    raises.

    Dividing r by its largest |entry| gives r~ with entries in [-1, 1], so
    the Gram G = fl(r~^T r~) cannot overflow, T = trace(G) >= 1, and
    underflow costs an absolute 1e-320 or so. With u = eps / 2: the division
    moves each singular value by at most u ||r~||_F; G = r~^T r~ + E with
    ||E||_2 <= gamma_l ||r~||_F^2 and ||r~||_F^2 <= T / (1 - gamma_l), as
    each entry is a dot product of length l (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sec. 3.5). If the Cholesky
    factorization of A = fl(G - tau I) completes, its computed factor C has
    C^T C = A + F with |F| <= gamma_{l+1} |C^T| |C| (Higham, Thm 10.3), so
    ||F||_2 <= gamma_{l+1} trace(C^T C) <= gamma_{l+1} (1 + u) T / (1 -
    gamma_{l+1}), and A + F is positive semidefinite. By Weyl's inequality
    lambda_min(r~^T r~) >= tau - u T - ||F||_2 - ||E||_2, where u T bounds
    the rounding of A's diagonal; the three terms sum to (l + 1) eps T to
    first order. tau = 4 (l + 1) eps T leaves sigma_min(r~)^2 >=
    3 (l + 1) eps T against sigma_max(r~)^2 <= T / (1 - gamma_l), and the
    division's u ||r~||_F takes far less than the step from 3 to 2. The
    values-only SVD errs by p(l) eps sigma_max(r), with LAPACK's modestly
    growing p, so the dense check could not have raised.
    """
    top = float(np.abs(r).max())
    if top == 0.0:
        return False
    rt = r / top
    g = rt.T @ rt
    l = r.shape[1]
    g.flat[::l + 1] -= 4.0 * (l + 1) * _EPS * float(np.trace(g))  # tau
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def sv_x_pinv(x, y) -> np.ndarray:
    """Singular values of x @ pinv(y) for a tall y of full column rank.

    With the reduced QR y = Q R, pinv(y) = inv(R) Q.T, and Q.T has
    orthonormal rows, so the values are those of solve(R.T, x.T): one QR of
    the tall block, one small solve and one values-only SVD. Raises
    ValueError("rank deficient y") when the smallest singular value of y is
    at most 1e-12 times its largest, and ValueError naming the overflow
    when a finite y has column norms beyond the float range, so that R is
    not finite. A scaled Gram-Cholesky test (``_certified_full_rank``)
    settles the rank first wherever y is far from the limit; only where it
    fails does a values-only SVD of R decide.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if y.shape[0] < y.shape[1]:
        raise ValueError("y must have at least as many rows as columns")
    if x.shape[1] != y.shape[1]:
        raise ValueError("x and y column counts differ")
    r = np.linalg.qr(y, mode="r")
    if not np.isfinite(r).all():
        raise ValueError("y overflows: its QR factor R is not finite")
    if not _certified_full_rank(r):
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise ValueError("rank deficient y")
    return np.linalg.svd(np.linalg.solve(r.T, x.T), compute_uv=False)
